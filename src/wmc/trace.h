#ifndef SWFOMC_WMC_TRACE_H_
#define SWFOMC_WMC_TRACE_H_

#include <cstdint>
#include <span>

#include "prop/compact_cnf.h"

namespace swfomc::wmc {

/// Receiver for the DPLL counter's search trace (knowledge compilation).
///
/// When DpllCounter::Options::trace_sink is set, the counter narrates its
/// search as it counts: every branch point becomes a deterministic OR
/// (annotated with its decision variable), every component split becomes
/// a decomposable AND, and every component-cache hit is replayed as a
/// reference to the node the first computation returned — so the emitted
/// structure is a d-DNNF DAG no larger than the search's set of distinct
/// cached components. The callbacks return opaque node ids; the counter
/// never interprets them, it only threads them back into later calls.
///
/// The trace is weight-independent: in tracing mode the counter disables
/// every zero-weight shortcut (skipped branches, zero-factor early
/// returns, the single-clause closed form), so the same circuit evaluates
/// correctly under *any* weight vector, not just the one it was counted
/// with.
class TraceSink {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kNoNode = 0xFFFFFFFFu;

  virtual ~TraceSink() = default;

  /// The neutral/absorbing constants (empty residual, conflicting branch).
  virtual NodeId True() = 0;
  virtual NodeId False() = 0;
  /// A decided or implied literal.
  virtual NodeId Literal(prop::Lit lit) = 0;
  /// A variable unconstrained in its residual: semantically OR(v, ¬v),
  /// the (w + w̄) factor of the count.
  virtual NodeId FreeVariable(prop::VarId variable) = 0;
  /// Decomposable conjunction: children have pairwise disjoint variables
  /// (decision/implied literals, free variables, component counts).
  virtual NodeId And(std::span<const NodeId> children) = 0;
  /// Deterministic disjunction over the two phases of `decision`; each
  /// child fixes the decision variable to a distinct value (conflicting
  /// branches are omitted, so 0..2 children arrive).
  virtual NodeId Or(prop::VarId decision, std::span<const NodeId> children) = 0;
  /// Called exactly once per Count(), after the search finishes, with the
  /// node representing the whole formula.
  virtual void Root(NodeId root) = 0;
};

}  // namespace swfomc::wmc

#endif  // SWFOMC_WMC_TRACE_H_
