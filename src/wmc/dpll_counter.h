#ifndef SWFOMC_WMC_DPLL_COUNTER_H_
#define SWFOMC_WMC_DPLL_COUNTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "numeric/rational.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prop/cnf.h"
#include "prop/compact_cnf.h"
#include "runtime/budget.h"
#include "wmc/component_cache.h"
#include "wmc/trace.h"
#include "wmc/trail.h"
#include "wmc/weights.h"

namespace swfomc::wmc {

/// Exact weighted model counter over CNF: DPLL search with unit
/// propagation, connected-component decomposition, and component caching
/// (the architecture of Cachet / sharpSAT). This is the library's
/// stand-in for the #SAT oracle the paper's reductions assume, and the
/// engine behind the grounded (non-lifted) WFOMC baseline.
///
/// Internally the search is trail-based: the constructor normalizes the
/// CNF and flattens it once into a CompactCnf (the counter keeps no other
/// copy), conditioning updates per-clause counters through occurrence
/// lists, and backtracking unwinds the assignment trail — clauses are
/// never copied during search. Residual components are discovered by DFS
/// over the occurrence lists restricted to unassigned variables and
/// memoized in one hashed component cache, which starts empty at every
/// count.
///
/// The search is strictly sequential, like Cachet and sharpSAT. Its state
/// is the counter's own members: one trail, one set of epoch-stamped
/// scratch and buffer pools, and one unsynchronized cache. So the count,
/// the Stats and a traced circuit are deterministic functions of the CNF,
/// the weights and the options.
/// Components found at a decision node are variable-disjoint subproblems
/// whose counts multiply; they are counted one after another.
///
/// Counts are over *all* variables in [0, cnf.variable_count): a variable
/// not constrained by any clause contributes a factor (w + w̄). Negative
/// and zero weights are handled exactly. Rational weights have their
/// denominators cleared once, at construction (wmc::ClearDenominators,
/// shared with nnf::Circuit::Evaluate): the search, its cache and its
/// brackets count in BigInt, and the count becomes a rational exactly
/// once, by the division at the root.
///
/// The search can be resource-governed (`Options::budget` / `cancel` /
/// `fault`): the search checks for a stop once per decision and, on
/// exhaustion, winds down cooperatively — explored branches keep their
/// exact mass, abandoned subtrees are bracketed, and CountBounded()
/// returns certified anytime bounds instead of an answer-or-hang.
class DpllCounter {
 public:
  struct Options {
    /// Split residual formulas into variable-disjoint components and count
    /// them independently.
    bool use_components = true;
    /// Memoize component counts (and, while tracing, their circuit
    /// nodes) keyed by their packed signature. Untraced, the memo holds
    /// at most 2^20 entries, the oldest evicted first.
    bool use_cache = true;
    /// When set, Count() emits its search DAG into the sink as a d-DNNF
    /// circuit (see wmc/trace.h). While tracing, the component cache never
    /// evicts (a hit must return the circuit node of the first
    /// computation), and the single-clause closed form and every
    /// zero-weight pruning shortcut are off so the circuit is valid for
    /// all weight vectors — the returned count is still bit-identical to
    /// an untraced Count().
    TraceSink* trace_sink = nullptr;
    /// Resource envelope for the search (not owned; may be shared across
    /// counters and threads). On exhaustion the search winds down
    /// cooperatively and CountBounded() reports bounds or an abort
    /// instead of spinning. When not tracing, its memory ceiling also
    /// bounds the component cache's resident bytes (keys + integer
    /// payloads + per-entry overhead). null = ungoverned.
    runtime::Budget* budget = nullptr;
    /// Cooperative cancellation (not owned). Polled once per decision;
    /// safe to cancel from another thread.
    runtime::CancelToken* cancel = nullptr;
    /// Deterministic fault injection for tests (not owned): fires
    /// cancellation or a simulated allocation failure at the K-th
    /// decision / cache insertion. null in production.
    runtime::FaultPoint* fault = nullptr;
    /// Live metrics registry (not owned; null = disabled). Counters are
    /// bridged from Stats without changing counting semantics: the
    /// search flushes its deltas every 4096 decisions and once at the
    /// end of every Count(); cache counters publish per invocation at
    /// finalization. Disabled cost is one predictable branch per
    /// decision.
    obs::MetricsRegistry* metrics = nullptr;
    /// Structured progress events (not owned; null = disabled), emitted
    /// at the same flush cadence and subject to the log's query
    /// sampling keyed by trace_query_id.
    obs::TraceLog* trace = nullptr;
    /// Correlates this counter's trace records with a query id from
    /// TraceLog::NextQueryId().
    std::uint64_t trace_query_id = 0;
  };

  struct Stats {
    std::uint64_t decisions = 0;
    std::uint64_t unit_propagations = 0;
    std::uint64_t component_splits = 0;
    /// Subtrees replaced by a [0, mass] bracket after the search stopped.
    std::uint64_t aborted_subtrees = 0;
    std::uint64_t cache_lookups = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_entries = 0;
    std::uint64_t cache_collisions = 0;
    std::uint64_t cache_insertions = 0;
    std::uint64_t cache_evictions = 0;
    /// Resident bytes in the component cache after Count() (a level, not
    /// a counter), traced or not.
    std::uint64_t cache_bytes = 0;

    bool operator==(const Stats&) const = default;
  };

  /// How a governed count ended.
  enum class CountOutcome : std::uint8_t {
    kExact,   // the budget sufficed: value == upper == the exact count
    kBounds,  // stopped early with certified value <= exact <= upper
    kAborted, // stopped early with no certified bounds (negative weights
              // or a partial trace); value/upper are meaningless
  };

  /// Result of a governed count. Exact runs (including every ungoverned
  /// run) report kExact with upper == value. When a budget, token, or
  /// fault stops the search early, explored branches contribute their
  /// exact partial mass and every unexplored subtree is bracketed by
  /// [0, product of its free-literal weight mass], so with non-negative
  /// weights `value <= exact <= upper` is certified. Negative weights
  /// make that bracket unsound, and a stopped trace is unusable, so both
  /// degrade to kAborted.
  struct CountResult {
    CountOutcome outcome = CountOutcome::kExact;
    numeric::BigRational value;  // exact count, or certified lower bound
    numeric::BigRational upper;  // == value when exact
    runtime::StopReason stop_reason = runtime::StopReason::kNone;
  };

  DpllCounter(prop::CnfFormula cnf, WeightMap weights);
  DpllCounter(prop::CnfFormula cnf, WeightMap weights, Options options);
  // The trail points into the counter's own flattened CNF.
  DpllCounter(const DpllCounter&) = delete;
  DpllCounter& operator=(const DpllCounter&) = delete;

  /// Weighted model count; deterministic and exact. Throws
  /// std::runtime_error if a governed run stops before the count is exact
  /// (use CountBounded() to consume anytime results).
  numeric::BigRational Count();

  /// Weighted model count under the Options resource envelope; never
  /// throws on exhaustion. Deterministic given a deterministic stop point
  /// (a decision cap or fault); wall-clock deadlines stop at a
  /// timing-dependent point, but the bracket guarantee holds wherever the
  /// stop lands. Bounds are monotone in the budget: every decision the
  /// search is allowed replaces a bracket with mass it contains.
  CountResult CountBounded();

  /// Search and cache counters of the last Count(), finalized on every
  /// return path. Deterministic: the same CNF, weights and options give
  /// the same counters on every run, repeated counts included. They satisfy
  /// cache_hits <= cache_lookups and cache_evictions <= cache_insertions.
  const Stats& stats() const { return stats_; }

  /// Plain DPLL satisfiability with early exit (used by the spectrum
  /// decision procedure of Section 4).
  static bool IsSatisfiable(const prop::CnfFormula& cnf);

 private:
  /// A residual component: unassigned variables connected through active
  /// clauses, as sorted id spans (no clause materialization).
  struct Component {
    std::vector<prop::VarId> variables;
    std::vector<std::uint32_t> clauses;
  };

  struct ClauseMark {
    std::uint32_t stamp = 0;
    std::uint32_t component = 0;  // valid when stamp matches epoch
  };

  /// Per-search-node scratch vectors, pooled by recursion depth: each
  /// CountResidual / BranchOnComponent frame borrows the entry at its
  /// depth instead of constructing fresh vectors, so steady-state search
  /// nodes reuse the capacity of earlier visits at the same depth.
  /// Heap-allocated entries keep the borrowed references stable while the
  /// stack grows underneath a deeper frame.
  struct NodeScratch {
    std::vector<Component> components;
    std::vector<prop::VarId> free_variables;
    std::vector<prop::VarId> remaining;
  };

  // Interval-tracking accumulator (defined in the .cpp): runs only the
  // exact lower track until the first bracketed factor arrives.
  class BoundsAccumulator;

  /// Count of one search node, possibly bracketed. While `exact`, `value`
  /// is the exact count and `upper` is unused (kept empty); once any
  /// descendant was cut off, `value`/`upper` are the certified bounds.
  struct NodeResult {
    numeric::BigInt value;
    numeric::BigInt upper;
    bool exact = true;
  };

  void BumpEpoch();
  // Borrows the scratch entry for the current recursion depth (growing
  // the pool on first descent); ReleaseScratch must be called once per
  // acquire, on frame exit.
  NodeScratch* AcquireScratch();
  void ReleaseScratch() { --scratch_depth_; }

  // Weighted count of the residual formula over `candidates` (unassigned
  // variables) and `parent_clauses` (sorted ids of the clauses that could
  // still be active), assuming unit propagation has reached fixpoint:
  // splits into components, counts free variables as (w + w̄), and
  // multiplies the per-component counts.
  //
  // The trace_* out-parameters are non-null exactly when tracing: the
  // residual/component entry points append the circuit nodes of their
  // factors to *trace_children, the per-component ones write their node
  // to *trace_node.
  NodeResult CountResidual(const std::vector<prop::VarId>& candidates,
                           const std::vector<std::uint32_t>& parent_clauses,
                           std::vector<TraceSink::NodeId>* trace_children);
  // Multiplies the component counts, in component order.
  NodeResult CountComponents(const std::vector<Component>& components,
                             std::vector<TraceSink::NodeId>* trace_children);
  NodeResult CountComponentCached(const Component& component,
                                  TraceSink::NodeId* trace_node);
  NodeResult BranchOnComponent(const Component& component,
                               TraceSink::NodeId* trace_node);

  // Governance checkpoint, one call per decision: observes an already-
  // requested stop, fires the fault point, polls the cancel token, and
  // charges the budget (decision cap exactly; deadline every 64 ticks).
  // kNone means keep searching. Only called when governed_.
  runtime::StopReason CheckStop();
  // Records a stop reason for the rest of the search; the first wins.
  void RequestStop(runtime::StopReason reason);
  // The [0, Π unassigned (w + w̄)] bracket standing in for `component`'s
  // abandoned subtree.
  NodeResult BracketComponent(const Component& component);

  // Partitions `candidates` into connected components and isolated
  // (constraint-free) variables via DFS over the occurrence lists. Each
  // component's clause list is assembled by one sweep over
  // `parent_clauses`, inheriting its sorted order — no per-component
  // sort.
  void FindComponents(const std::vector<prop::VarId>& candidates,
                      const std::vector<std::uint32_t>& parent_clauses,
                      std::vector<Component>* components,
                      std::vector<prop::VarId>* free_variables);
  prop::VarId PickBranchVariable(const Component& component);
  // Packs the component's signature into key_scratch_ and returns its
  // 64-bit hash.
  std::uint64_t PackKey(const Component& component);

  // Publishes the cache's counters into stats_ and the live registry;
  // called on every Count() return. The cache starts empty at every
  // Count(), so its counters describe exactly one invocation.
  void FinalizeStats();

  // Publishes the search-counter deltas to the live registry and emits
  // one progress trace event (when sampled). Called every 4096 decisions
  // and once at the end of the search; never
  // called when observability is off (observed_ == false).
  void FlushLiveStats();

  bool tracing() const { return options_.trace_sink != nullptr; }

  // The normalized, flattened CNF; built once, by the constructor.
  prop::CompactCnf compact_;
  // Cleared weights indexed by Lit, and their per-variable sums w + w̄
  // (see the constructor): every value the search computes or caches is
  // weight_scale_ = Π d_v times its true count.
  std::vector<numeric::BigInt> literal_weight_;
  std::vector<numeric::BigInt> total_weight_;
  numeric::BigInt weight_scale_;
  Options options_;
  // True when any of budget/cancel/fault is set; the sole per-decision
  // cost on ungoverned runs is this one predictable branch.
  bool governed_;
  // True when metrics or trace is set; like governed_, one predictable
  // per-decision branch when off.
  bool observed_;
  // Instrument pointers resolved once at construction (all null when
  // options_.metrics is null).
  struct LiveMetrics {
    obs::Counter* decisions = nullptr;
    obs::Counter* propagations = nullptr;
    obs::Counter* component_splits = nullptr;
    obs::Counter* cache_lookups = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_insertions = nullptr;
    obs::Counter* cache_evictions = nullptr;
  };
  LiveMetrics live_;
  // Non-negative weights make the [0, mass] bracket certified. With
  // negative weights a stop degrades to kAborted.
  bool bounds_sound_ = true;

  // Search state. CountBounded() resets what a count reads (counters,
  // stop, cache, trail); the scratch below is reused across counts.
  //
  // The stop requested for the current Count(); kNone while running.
  runtime::StopReason stop_ = runtime::StopReason::kNone;
  Stats stats_;
  // Search counters already pushed to the live metrics registry;
  // FlushLiveStats publishes stats_ - flushed_ and advances this.
  Stats flushed_;
  // Tick counter amortizing the deadline check (the clock is read every
  // 64 decisions, starting with the first).
  std::uint64_t governance_ticks_ = 0;
  // Cleared at every Count(); its entries carry circuit nodes while
  // tracing.
  ComponentCache cache_;
  Trail trail_;

  // Epoch-stamped scratch for FindComponents / PickBranchVariable, so
  // neither allocates per search node. 32-bit epochs keep the stamp
  // arrays cache-friendly; on wraparound they are wiped and the epoch
  // restarts (BumpEpoch).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> variable_stamp_;
  std::vector<ClauseMark> clause_mark_;
  std::vector<std::uint32_t> score_stamp_;
  std::vector<std::uint64_t> score_;

  // Buffer pools: component id-spans and cache keys are recycled across
  // search nodes instead of reallocated.
  std::vector<Component> component_pool_;
  ComponentKey key_scratch_;

  // Depth-indexed node scratch (AcquireScratch/ReleaseScratch) and the
  // component-DFS work stack, both reused across all search nodes.
  std::vector<std::unique_ptr<NodeScratch>> node_scratch_;
  std::size_t scratch_depth_ = 0;
  std::vector<prop::VarId> dfs_stack_;
};

/// One-shot convenience.
numeric::BigRational CountWeightedModels(prop::CnfFormula cnf,
                                         WeightMap weights);

}  // namespace swfomc::wmc

#endif  // SWFOMC_WMC_DPLL_COUNTER_H_
