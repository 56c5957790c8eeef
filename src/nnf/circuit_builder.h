#ifndef SWFOMC_NNF_CIRCUIT_BUILDER_H_
#define SWFOMC_NNF_CIRCUIT_BUILDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "nnf/circuit.h"
#include "wmc/trace.h"

namespace swfomc::nnf {

/// The wmc::TraceSink that turns a DPLL search trace into a Circuit.
/// Plug one into DpllCounter::Options::trace_sink, run Count() once, and
/// Finish() hands back the d-DNNF of exactly the formula that was
/// counted.
///
/// The builder canonicalizes on the fly — TRUE factors and FALSE summands
/// are dropped, empty/singleton AND and OR collapse to their neutral
/// element or single child, and constant/literal/free-variable nodes are
/// hash-consed — so the arena stays a compact DAG. Finish() then drops
/// the nodes collapsing made unreachable and renumbers so the root is the
/// last node (the `.nnf` on-disk convention).
class CircuitBuilder final : public wmc::TraceSink {
 public:
  explicit CircuitBuilder(std::uint32_t variable_count);

  NodeId True() override;
  NodeId False() override;
  NodeId Literal(prop::Lit lit) override;
  NodeId FreeVariable(prop::VarId variable) override;
  NodeId And(std::span<const NodeId> children) override;
  NodeId Or(prop::VarId decision, std::span<const NodeId> children) override;
  void Root(NodeId root) override;

  bool has_root() const { return root_ != kNoNode; }

  /// The trimmed, root-last circuit. Requires Root() to have been called
  /// (DpllCounter::Count() does; throws std::logic_error otherwise).
  /// Consumes the builder's arena — build a fresh builder per compile.
  /// `auxiliary_begin` is the first Tseitin auxiliary variable of the
  /// traced CNF (the grounded compiler's tuple count); the circuit folds
  /// the auxiliaries' literals to 1 and rejects weights that say
  /// otherwise (see Circuit). The default names none.
  Circuit Finish(std::uint32_t auxiliary_begin = Circuit::kNoAuxiliaries);

 private:
  NodeId Append(Circuit::Node node, std::span<const NodeId> children);

  std::uint32_t variable_count_;
  std::vector<Circuit::Node> nodes_;
  std::vector<NodeId> edges_;
  NodeId root_ = kNoNode;
  NodeId true_ = kNoNode;
  NodeId false_ = kNoNode;
  std::vector<NodeId> literal_node_;  // per compact literal, kNoNode = none
  std::vector<NodeId> free_node_;     // per variable, kNoNode = none
};

}  // namespace swfomc::nnf

#endif  // SWFOMC_NNF_CIRCUIT_BUILDER_H_
