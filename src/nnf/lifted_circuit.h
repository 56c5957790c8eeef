#ifndef SWFOMC_NNF_LIFTED_CIRCUIT_H_
#define SWFOMC_NNF_LIFTED_CIRCUIT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "numeric/combinatorics.h"
#include "numeric/rational.h"

namespace swfomc::nnf {

/// A domain-parametric arithmetic circuit: the first-order analogue of the
/// grounded d-DNNF in circuit.h (first-order circuits with counting nodes;
/// Van den Broeck et al., IJCAI 2011). Where a grounded circuit fixes the
/// domain size at compile time and names one propositional variable per
/// ground tuple, a lifted circuit's leaves name *relations* and its
/// counting nodes carry child multiplicities that are functions of n — so
/// one compile of an FO² sentence evaluates at every (domain size, weight
/// vector) pair in time polynomial in n.
///
/// Node kinds:
///   * kConst — a fixed rational (slot into the constant pool);
///   * kWeight — one phase of one relation's weight, resolved per call
///     (w_R when `positive`, w̄_R otherwise);
///   * kAnd — product of the children (1 when childless);
///   * kOr — sum of the children (0 when childless); the compiler emits
///     these for mutually exclusive alternatives (Shannon branches of a
///     zero-ary predicate, the satisfying off-diagonal codes of a cell
///     pair), so the sum is a deterministic disjunction arithmetically;
///   * kCount — the binomial counting node, the lifted analogue of an AND
///     over an n-element partition. Its `cells` field gives C, the number
///     of 1-types; its children are the C per-cell weights u_0..u_{C-1}
///     followed by the C(C+1)/2 pair sums r_kl for 0 <= k <= l < C in
///     row-major upper-triangular order. Its value at domain size n is
///     Appendix C's composition sum:
///       Σ_{n_0+..+n_{C-1} = n} (n choose n_0..n_{C-1})
///           Π_l u_l^{n_l} · Π_l r_ll^{C(n_l,2)} · Π_{k<l} r_kl^{n_k n_l}.
///     Evaluation shrinks the sum by value, once per call: a cell with
///     u_l = 0 is dropped, and two cells k, l with r_kk = r_kl = r_ll and
///     r_km = r_lm for every other m merge into one cell of weight
///     u_k + u_l (exact, since C(a,2) + C(b,2) + ab = C(a+b,2)), until no
///     pair merges. The remaining cells are summed as nested loops over
///     n_0 .. n_{C-2}, the last cell taking the remainder; each loop
///     steps its running powers by one multiply, and a zero partial
///     product prunes the loop's whole subtree.
///
/// Like the grounded circuit, the structure never depends on the weights
/// (both Shannon branches are present even when a compile-time weight is
/// zero, and cells merge only by value at evaluation time), so one
/// circuit is exact for every weight vector — including zero and negative
/// weights. It is the only evaluator of the lifted FO² route: every
/// count, single-point or swept, compiles and evaluates one of these.
///
/// Complement. Like the grounded circuit (circuit.h), a lifted circuit
/// may hold the circuit of ¬Φ and stand for Φ (SetComplement): Evaluate
/// then returns T(n) − the nodes' value, with T(n) the total weight of
/// the original relations (numeric::TotalWeight).
class LiftedCircuit {
 public:
  using NodeId = std::uint32_t;

  enum class Kind : std::uint8_t { kConst, kWeight, kAnd, kOr, kCount };

  /// One relation of the circuit's (extended, Scott/Skolem) vocabulary,
  /// with its compile-time weights — the defaults Evaluate uses when the
  /// caller passes no replacement vector. Self-contained (no logic::
  /// dependency) so a parsed .lnnf file round-trips without a vocabulary.
  struct Relation {
    std::string name;
    numeric::BigRational positive_weight{1};
    numeric::BigRational negative_weight{1};
  };

  struct Node {
    Kind kind = Kind::kConst;
    /// kConst: slot in the constant pool; kWeight: relation id.
    std::uint32_t index = 0;
    /// kWeight only: which phase of the relation's weight pair.
    bool positive = true;
    /// kCount only: C, the number of cells (children are C + C(C+1)/2).
    std::uint32_t cells = 0;
    std::uint32_t children_begin = 0;  // span into the edge array
    std::uint32_t children_end = 0;
  };

  /// Structural statistics (the `swfomc compile` report's circuit block).
  struct Stats {
    std::uint64_t nodes = 0;
    std::uint64_t constant_nodes = 0;
    std::uint64_t weight_nodes = 0;
    std::uint64_t and_nodes = 0;
    std::uint64_t or_nodes = 0;
    std::uint64_t count_nodes = 0;
    std::uint64_t edges = 0;
    /// Longest root-to-leaf path, in edges (0 when the root is a leaf).
    std::uint64_t depth = 0;
  };

  /// Per-relation weights for one evaluation: weights[id] = (w, w̄).
  using Weights = numeric::WeightPairs;

  /// What the counting nodes did in one evaluation, summed over them.
  struct EvalStats {
    /// Innermost terms of the nested sums, after merging.
    std::uint64_t composition_terms = 0;
    /// Cells merged into an interchangeable one.
    std::uint64_t merged_cells = 0;
    /// Subtrees of the nested sum skipped for a zero partial product: a
    /// loop ended early, or an innermost term left unmultiplied.
    std::uint64_t pruned_subtrees = 0;
  };

  LiftedCircuit() = default;

  /// Raw assembly, used by the lifted compiler and the .lnnf parser.
  /// Requirements (std::invalid_argument otherwise): at least one node;
  /// every child id smaller than its parent's id (topological, acyclic);
  /// children spans nested in `edges`; kConst/kWeight childless with
  /// in-range indices; kCount with cells >= 1 and exactly
  /// cells + cells(cells+1)/2 children; `root < nodes.size()`.
  LiftedCircuit(std::vector<Relation> relations,
                std::vector<numeric::BigRational> constants,
                std::vector<Node> nodes, std::vector<NodeId> edges,
                NodeId root);

  /// Makes the circuit stand for the complement of its nodes' function:
  /// Evaluate returns T(n) − the nodes' value, with T over relations
  /// 0..k-1 of arities `arities` (k = arities.size()) — the original
  /// vocabulary, and not the Scott/Skolem predicates after it (the
  /// relation table records no arity). std::invalid_argument when k
  /// exceeds relations().size().
  void SetComplement(std::vector<std::size_t> arities);
  /// The arities of SetComplement; nullopt for a circuit that stands for
  /// its nodes' own function.
  const std::optional<std::vector<std::size_t>>& complement() const {
    return complement_;
  }

  const std::vector<Relation>& relations() const { return relations_; }
  const std::vector<numeric::BigRational>& constants() const {
    return constants_;
  }
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

  /// The compile-time weight pairs, in relation-id order — the identity
  /// element for Evaluate's `weights` parameter.
  Weights DefaultWeights() const;

  /// WFOMC(Φ, n) under the compile-time weights.
  numeric::BigRational Evaluate(std::uint64_t domain_size) const;

  /// WFOMC(Φ, n) under explicit per-relation weights, subtracted from
  /// T(n) when complement() is set (`weights` must
  /// cover relations().size() relations; zero and negative weights are
  /// fine). `binomials` and `values` are optional caller-owned scratch: a
  /// sweep passes one binomial table so Pascal rows are built once, and a
  /// server passes one value column per thread so steady-state evaluation
  /// allocates only when an individual value outgrows its slot. `stats`,
  /// when given, accumulates the counting nodes' work.
  /// Throws std::invalid_argument for domain size 0 (the Scott/Skolem
  /// normal form underlying the circuit assumes a non-empty domain; route
  /// n = 0 to a direct count) and for a short weight vector.
  numeric::BigRational Evaluate(
      std::uint64_t domain_size, const Weights& weights,
      numeric::BinomialTable* binomials = nullptr,
      std::vector<numeric::BigRational>* values = nullptr,
      EvalStats* stats = nullptr) const;

  Stats ComputeStats() const;

  /// Resident bytes of the circuit: flat arenas plus the constant pool's
  /// limb buffers and the relation table's strings and weights. Used by
  /// byte-bounded circuit caches (swfomc serve).
  std::size_t MemoryBytes() const;

 private:
  std::vector<Relation> relations_;
  std::vector<numeric::BigRational> constants_;
  std::vector<Node> nodes_;
  std::vector<NodeId> edges_;
  NodeId root_ = 0;
  std::optional<std::vector<std::size_t>> complement_;
};

}  // namespace swfomc::nnf

#endif  // SWFOMC_NNF_LIFTED_CIRCUIT_H_
