#ifndef SWFOMC_NNF_CIRCUIT_H_
#define SWFOMC_NNF_CIRCUIT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "numeric/rational.h"
#include "prop/compact_cnf.h"
#include "wmc/weights.h"

namespace swfomc::nnf {

/// Node kinds of a d-DNNF arithmetic circuit (Darwiche's deterministic
/// decomposable negation normal form): constants, literals, decomposable
/// conjunctions (children over pairwise disjoint variables), and
/// deterministic disjunctions (children pairwise inconsistent — here, the
/// two phases of a decision variable).
enum class NodeKind : std::uint8_t { kTrue, kFalse, kLiteral, kAnd, kOr };

/// Decision annotation of an OR node that records no decision variable.
inline constexpr prop::VarId kNoDecision = 0xFFFFFFFFu;

/// Thrown by the Circuit constructor for an AND whose children share a
/// variable. It names the AND so a parser can point at its line.
struct NonDecomposableAnd : std::invalid_argument {
  NonDecomposableAnd(std::uint32_t and_node, prop::VarId shared);
  std::uint32_t node;
  prop::VarId variable;
};

/// A compiled query circuit in a flat arena: nodes in topological order
/// (every child has a smaller id than its parent), children in one shared
/// edge array addressed by per-node spans. The circuit is a DAG — cache
/// hits during compilation become shared subcircuits — and evaluation is
/// one linear bottom-up pass, so a query compiled once answers any
/// subsequent weight vector in O(nodes + edges) exact operations.
///
/// Every AND is decomposable: the constructor rejects one whose children
/// share a variable. ORs need not be smooth, and the root need not mention
/// every variable (c2d-style compilers emit such circuits). The circuit
/// stands for its weighted model count over all the non-auxiliary
/// variables, so lowering smooths it.
///
/// Evaluation tape. The circuit is lowered once, at construction, into a
/// flat tape of exact BigInt operations, and that tape is what Evaluate
/// runs. Lowering:
///   - multiplies each OR child that lacks some of its parent's variables
///     by one (w_v + w̄_v) per missing variable, and the root by one per
///     variable it does not mention; each such sum is one op, emitted
///     once per variable and shared (a child that folds to 0 needs none);
///   - folds TRUE/FALSE nodes and auxiliary-variable literals (below)
///     into constant coefficients, interned once per distinct value;
///   - drops AND/OR nodes left with one non-constant child and a neutral
///     coefficient (1 for AND, 0 for OR): they alias that child;
///   - keeps only nodes reachable from the root;
///   - numbers the remaining values by liveness, so a value slot is
///     reused as soon as its last reader has run.
/// The arrays the tape is read from — nodes, edges, node_count(),
/// edge_count(), ComputeStats(), the `.nnf` form — are unchanged.
///
/// Auxiliary variables. The grounded compiler names a boundary (see the
/// constructor): variables at or above it are Tseitin auxiliaries, which
/// weigh (1, 1) under every query, so their literals fold to 1. Evaluate
/// throws std::invalid_argument when a weight map gives one anything
/// else, so the fold can never change an answer silently. Circuits with
/// no boundary — traced from a raw CNF, parsed from `.nnf` — fold only
/// their TRUE/FALSE nodes and accept any weights.
///
/// Complement. Under tuple-independent weights WMC(Φ) + WMC(¬Φ) = T, the
/// total weight of the variables. A circuit may hold the d-DNNF of ¬Φ and
/// stand for Φ (SetComplement; api::Engine's polarity step, the `.nnf`
/// `t` line): Evaluate then returns T − WMC(nodes). The nodes, the stats
/// and the `.nnf` node lines describe the ¬Φ circuit; every value
/// Evaluate returns is Φ's.
class Circuit {
 public:
  using NodeId = std::uint32_t;

  /// Auxiliary boundary of a circuit with no auxiliary variables.
  static constexpr std::uint32_t kNoAuxiliaries = 0xFFFFFFFFu;

  struct Node {
    NodeKind kind = NodeKind::kTrue;
    prop::Lit literal = 0;               // kLiteral only (compact encoding)
    prop::VarId decision = kNoDecision;  // kOr only
    std::uint32_t children_begin = 0;    // span into the edge array
    std::uint32_t children_end = 0;
  };

  /// Structural statistics (the `swfomc compile` report's circuit block).
  struct Stats {
    std::uint64_t nodes = 0;
    std::uint64_t constant_nodes = 0;
    std::uint64_t literal_nodes = 0;
    std::uint64_t and_nodes = 0;
    std::uint64_t or_nodes = 0;
    std::uint64_t edges = 0;
    /// Longest root-to-leaf path, in edges (0 when the root is a leaf).
    std::uint64_t depth = 0;
  };

  /// Reusable evaluation scratch. `integer_values` is the tape's value
  /// array: one scaled literal weight per compact literal of the
  /// non-auxiliary variables, then the folded constants, then the tape's
  /// live value slots (a few thousand on a circuit of 10^5 nodes, not one
  /// per node).
  /// `rational_values` is lifted-only scratch: Circuit::Evaluate never
  /// touches it; callers that serve both circuit kinds from one arena
  /// (api::CompiledQuery::Evaluate) hand it to LiftedCircuit::Evaluate.
  /// A caller serving many weight vectors against the same circuit passes
  /// one arena to every Evaluate call; after the first evaluation the
  /// buffers hold their capacity.
  /// The arena carries no state between calls — every entry is written
  /// before it is read — and one arena can serve circuits of different
  /// sizes (the vectors are resized per call). Not thread-safe: one
  /// arena per evaluating thread.
  struct EvalArena {
    std::vector<numeric::BigInt> integer_values;
    std::vector<numeric::BigRational> rational_values;
  };

  Circuit() = default;

  /// Raw assembly, used by CircuitBuilder::Finish and the .nnf parser.
  /// Requirements (std::invalid_argument otherwise): at least one node;
  /// every child id smaller than its parent's id (topological, acyclic);
  /// children spans nested in `edges`; constants and literals childless;
  /// literal variables and OR decisions inside `variable_count`;
  /// `root < nodes.size()`; every AND decomposable (NonDecomposableAnd
  /// otherwise). Variables at or above `auxiliary_begin` are Tseitin
  /// auxiliaries (see the class comment); the grounded compiler passes
  /// its tuple count, everything else leaves the default.
  Circuit(std::uint32_t variable_count, std::vector<Node> nodes,
          std::vector<NodeId> edges, NodeId root,
          std::uint32_t auxiliary_begin = kNoAuxiliaries);

  /// Makes the circuit stand for the complement of its nodes' function:
  /// Evaluate returns T − WMC(nodes), where T = Π_{v < variables}
  /// (w_v + w̄_v) is the total weight of the first `variables` variables —
  /// the ground tuples; Tseitin auxiliaries stay out of T.
  /// std::invalid_argument when `variables` exceeds variable_count().
  void SetComplement(std::uint32_t variables);
  /// The `variables` of SetComplement; nullopt for a circuit that stands
  /// for its nodes' own function.
  std::optional<std::uint32_t> complement() const { return complement_; }

  std::uint32_t variable_count() const { return variable_count_; }
  /// The first auxiliary variable (variable_count() when there are none).
  std::uint32_t auxiliary_begin() const { return auxiliary_begin_; }
  std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  std::uint64_t edge_count() const { return edges_.size(); }
  NodeId root() const { return root_; }
  const Node& node(NodeId id) const { return nodes_[id]; }
  std::span<const NodeId> Children(NodeId id) const {
    return {edges_.data() + nodes_[id].children_begin,
            edges_.data() + nodes_[id].children_end};
  }

  /// The weighted model count over the non-auxiliary variables: one
  /// bottom-up pass assigning TRUE → 1, FALSE → 0, literal → its weight,
  /// AND → product, OR → sum of the smoothed children, the root smoothed
  /// over every non-auxiliary variable, subtracted from T when
  /// complement() is set.
  /// For circuits traced from DpllCounter this equals DpllCounter::Count()
  /// under the same weights, bit for bit, for every weight map that gives
  /// the auxiliary variables (1, 1) (including zero and negative weights
  /// elsewhere). Throws std::invalid_argument when `weights` covers
  /// fewer than variable_count() variables or reweights an auxiliary.
  ///
  /// Every root term covers each non-auxiliary variable with exactly one
  /// literal, so evaluation clears each variable's weight denominators up
  /// front, runs the tape in pure integer arithmetic, and divides once by
  /// their product — without a gcd reduction per node, which is what
  /// makes serving a compiled circuit several times cheaper than a
  /// recount even on rational weights.
  numeric::BigRational Evaluate(const wmc::WeightMap& weights) const;
  /// Same, with caller-owned scratch (see EvalArena); the no-arena
  /// overload delegates here with a throwaway arena.
  numeric::BigRational Evaluate(const wmc::WeightMap& weights,
                                EvalArena* arena) const;

  Stats ComputeStats() const;

  /// Size of the evaluation tape: its operations, smoothing sums
  /// included, and the value slots they write (both 0 when the root
  /// folds to a constant or a literal with nothing to smooth).
  std::size_t tape_size() const { return tape_.size(); }
  std::uint32_t tape_slots() const { return tape_slots_; }

  /// Resident bytes of the circuit: nodes, edges and the evaluation tape.
  /// Used by byte-bounded circuit caches (swfomc serve) the way
  /// ComponentCache accounts its entries.
  std::size_t MemoryBytes() const;

  /// Structural determinism audit (the constructor already enforces
  /// decomposability): OR children must be pairwise inconsistent — each
  /// pair has to fix some variable to opposite phases among its surface
  /// literals (the child itself, or the direct literal children of an
  /// AND child); an OR carrying a decision variable must fix exactly that
  /// variable in every child. Returns false and fills *error (when
  /// non-null) with the first violation.
  bool Validate(std::string* error) const;

 private:
  // One lowered AND/OR node: values[dst] = values[o1] ⊗ values[o2] ⊗ ...
  // over the operands from the previous op's operands_end to this one's,
  // where ⊗ is × for a product (AND, smoothing) and + otherwise. Indices
  // are into EvalArena::integer_values: literal inputs, then constants_,
  // then slots; a folded coefficient other than the neutral element is the
  // last operand. dst never equals one of the op's operands.
  struct TapeOp {
    std::uint32_t dst = 0;
    std::uint32_t operands_end : 31 = 0;
    std::uint32_t product : 1 = 0;
  };
  // Lowering-time tags: a reference to a constants_ entry, and "no op".
  static constexpr std::uint32_t kConstantRef = 0x80000000u;
  static constexpr std::uint32_t kNoOp = 0xFFFFFFFFu;

  numeric::BigRational EvaluateTape(const wmc::WeightMap& weights,
                                    EvalArena* arena) const;
  // The variables below every node, as bitsets of VarsetWords() words
  // per node. Throws NonDecomposableAnd.
  std::vector<std::uint64_t> NodeVarsets() const;
  std::size_t VarsetWords() const {
    return (static_cast<std::size_t>(variable_count_) + 63) / 64;
  }
  // Fills tape_, operands_, constants_, tape_slots_ and root_ref_ from
  // the NodeVarsets() sets.
  void LowerTape(const std::vector<std::uint64_t>& varsets);

  std::uint32_t variable_count_ = 0;
  std::uint32_t auxiliary_begin_ = 0;
  std::vector<Node> nodes_;
  std::vector<NodeId> edges_;
  NodeId root_ = 0;
  std::vector<TapeOp> tape_;
  std::vector<std::uint32_t> operands_;
  std::vector<numeric::BigInt> constants_;  // distinct folded values
  std::uint32_t tape_slots_ = 0;
  std::uint32_t root_ref_ = 0;  // the root's integer_values index
  std::optional<std::uint32_t> complement_;
};

}  // namespace swfomc::nnf

#endif  // SWFOMC_NNF_CIRCUIT_H_
