#include "wmc/dpll_counter.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

namespace swfomc::wmc {

namespace {

using numeric::BigInt;
using numeric::BigRational;
using prop::Lit;
using prop::LitVariable;
using prop::MakeLit;
using prop::NegateLit;
using prop::VarId;

// Live-metrics flush cadence in decisions (must be a power of two): a
// relaxed fetch_add per counter every this many decisions, so the
// enabled-mode amortized cost stays far below one increment per
// decision.
constexpr std::uint64_t kLiveFlushInterval = 4096;

// Entry bound of the counting memo; the oldest entries are evicted past it.
constexpr std::size_t kMaxCacheEntries = std::size_t{1} << 20;

prop::CompactCnf Flatten(prop::CnfFormula cnf) {
  prop::NormalizeCnf(&cnf);
  return prop::CompactCnf::Build(cnf);
}

}  // namespace

/// Interval-tracking product/sum over two BigInt tracks. While every
/// factor is exact only the lower track runs — the identical op sequence
/// as the ungoverned counter, so exact results stay bit-identical and
/// carry no second-accumulator cost. The upper track is forked lazily (a
/// copy of the exact prefix) when the first bracketed factor arrives.
///
/// Interval arithmetic here assumes non-negative endpoints with
/// lower <= exact <= upper, under which products and sums of intervals
/// bracket the products and sums of the exact values. The counter only
/// trusts brackets when all weights are non-negative (bounds_sound_).
class DpllCounter::BoundsAccumulator {
 public:
  void SetOne() { Set(BigInt(1)); }

  /// True only when the accumulated value is *exactly* zero. A zero
  /// lower bound on a bracketed product says nothing about the upper
  /// track, so zero-short-circuits must (and do) key off this.
  bool IsZero() const { return exact_ && lower_.IsZero(); }

  void Set(const BigInt& value) {
    lower_ = value;
    exact_ = true;
  }

  void Multiply(const BigInt& factor) {
    lower_ *= factor;
    if (!exact_) upper_ *= factor;
  }

  void Multiply(const NodeResult& factor) {
    if (!factor.exact && exact_) Fork();
    lower_ *= factor.value;
    if (!exact_) upper_ *= factor.exact ? factor.value : factor.upper;
  }

  void Add(const BoundsAccumulator& term) {
    if (!term.exact_ && exact_) Fork();
    lower_ += term.lower_;
    if (!exact_) upper_ += term.exact_ ? term.lower_ : term.upper_;
  }

  NodeResult Finish() {
    if (exact_) return NodeResult{std::move(lower_), BigInt(), true};
    return NodeResult{std::move(lower_), std::move(upper_), false};
  }

 private:
  void Fork() {
    upper_ = lower_;  // the exact prefix bounds itself from above
    exact_ = false;
  }

  BigInt lower_;
  BigInt upper_;
  bool exact_ = true;
};

DpllCounter::DpllCounter(prop::CnfFormula cnf, WeightMap weights)
    : DpllCounter(std::move(cnf), std::move(weights), Options{}) {}

DpllCounter::DpllCounter(prop::CnfFormula cnf, WeightMap weights,
                         Options options)
    : compact_(Flatten(std::move(cnf))),
      options_(options),
      governed_(options.budget != nullptr || options.cancel != nullptr ||
                options.fault != nullptr),
      observed_(options.metrics != nullptr || options.trace != nullptr),
      // A budget's memory ceiling bounds the counting memo's resident
      // bytes (the memo is the dominant allocation); eviction follows
      // whichever of the entry and byte bounds binds first. A tracing memo
      // is unbounded: a hit must return the node of the first computation.
      cache_(options.trace_sink != nullptr ? ComponentCache::kUnbounded
                                           : kMaxCacheEntries,
             options.trace_sink == nullptr && options.budget != nullptr
                 ? options.budget->max_memory_bytes()
                 : ComponentCache::kUnbounded),
      trail_(&compact_),
      variable_stamp_(compact_.variable_count(), 0),
      clause_mark_(compact_.clause_count()),
      score_stamp_(compact_.variable_count(), 0),
      score_(compact_.variable_count(), 0) {
  const VarId variable_count = compact_.variable_count();
  weights.EnsureSize(variable_count);
  // Clear denominators once: every term the search sums carries exactly
  // one weight factor per counted variable (a decision or implied
  // literal, a free (w + w̄), the single-clause closed form, or the
  // [0, Π(w + w̄)] bracket), so the scaled search totals weight_scale_ ×
  // the count and runs in BigInt. Entries past variable_count are never
  // read and stay out of the scale.
  literal_weight_.resize(2 * std::size_t{variable_count});
  weight_scale_ = ClearDenominators(weights, variable_count, literal_weight_);
  total_weight_.reserve(variable_count);
  for (VarId v = 0; v < variable_count; ++v) {
    total_weight_.push_back(literal_weight_[MakeLit(v, true)] +
                            literal_weight_[MakeLit(v, false)]);
  }
  // Clearing keeps every sign (d_v > 0), so the scaled weights decide.
  bounds_sound_ = std::none_of(
      literal_weight_.begin(), literal_weight_.end(),
      [](const BigInt& weight) { return weight.IsNegative(); });
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* r = options_.metrics;
    live_.decisions = r->GetCounter("swfomc_dpll_decisions_total",
                                    "DPLL branch decisions");
    live_.propagations = r->GetCounter("swfomc_dpll_propagations_total",
                                       "Unit propagations");
    live_.component_splits = r->GetCounter(
        "swfomc_dpll_component_splits_total",
        "Residuals that split into >1 component");
    live_.cache_lookups = r->GetCounter("swfomc_dpll_cache_lookups_total",
                                        "Component-cache probes");
    live_.cache_hits = r->GetCounter("swfomc_dpll_cache_hits_total",
                                     "Component-cache hits");
    live_.cache_insertions = r->GetCounter(
        "swfomc_dpll_cache_insertions_total", "Component-cache insertions");
    live_.cache_evictions = r->GetCounter(
        "swfomc_dpll_cache_evictions_total", "Component-cache evictions");
  }
}

void DpllCounter::FlushLiveStats() {
  if (live_.decisions != nullptr) {
    live_.decisions->Add(stats_.decisions - flushed_.decisions);
    live_.propagations->Add(stats_.unit_propagations -
                            flushed_.unit_propagations);
    live_.component_splits->Add(stats_.component_splits -
                                flushed_.component_splits);
  }
  flushed_ = stats_;
  if (options_.trace != nullptr &&
      options_.trace->SampledQuery(options_.trace_query_id)) {
    options_.trace->Event("dpll_progress")
        .Num("query", options_.trace_query_id)
        .Num("decisions", stats_.decisions)
        .Num("propagations", stats_.unit_propagations)
        .Num("splits", stats_.component_splits);
  }
}

DpllCounter::NodeScratch* DpllCounter::AcquireScratch() {
  if (scratch_depth_ == node_scratch_.size()) {
    node_scratch_.push_back(std::make_unique<NodeScratch>());
  }
  NodeScratch* scratch = node_scratch_[scratch_depth_++].get();
  scratch->components.clear();
  scratch->free_variables.clear();
  scratch->remaining.clear();
  return scratch;
}

numeric::BigRational DpllCounter::Count() {
  CountResult result = CountBounded();
  if (result.outcome != CountOutcome::kExact) {
    throw std::runtime_error(
        std::string("DpllCounter: budget exhausted before an exact count "
                    "(stop reason: ") +
        runtime::ToString(result.stop_reason) +
        "); use CountBounded() for anytime results");
  }
  return std::move(result.value);
}

DpllCounter::CountResult DpllCounter::CountBounded() {
  stats_ = Stats{};
  flushed_ = Stats{};
  governance_ticks_ = 0;
  stop_ = runtime::StopReason::kNone;
  cache_.Clear();
  trail_.UndoTo(0);
  TraceSink* sink = options_.trace_sink;
  TraceSink::NodeId trace_root = TraceSink::kNoNode;
  // The counting core; the cache's counters are folded into stats_ on
  // exit no matter which path returns. In tracing mode the zero-weight
  // early returns are disabled — a weight-induced zero is not UNSAT, and
  // the circuit must stay valid for other weight vectors.
  NodeResult result = [&]() -> NodeResult {
    // False on an empty clause, before anything is propagated.
    if (!trail_.PropagateExistingUnits(&stats_.unit_propagations)) {
      if (sink != nullptr) trace_root = sink->False();
      return NodeResult{};
    }
    std::vector<TraceSink::NodeId> children;
    BoundsAccumulator result;
    result.SetOne();
    for (Lit lit : trail_.assignments()) {
      const BigInt& weight = literal_weight_[lit];
      if (!weight.IsOne()) result.Multiply(weight);
      if (sink != nullptr) children.push_back(sink->Literal(lit));
    }
    if (result.IsZero() && sink == nullptr) return NodeResult{};

    std::vector<VarId> candidates;
    candidates.reserve(compact_.variable_count());
    for (VarId v = 0; v < compact_.variable_count(); ++v) {
      if (trail_.IsAssigned(v)) continue;
      if (compact_.Mentions(v)) {
        candidates.push_back(v);
      } else {
        // Never constrained by any clause: free (w + w̄) factor.
        result.Multiply(total_weight_[v]);
        if (sink != nullptr) children.push_back(sink->FreeVariable(v));
      }
    }
    if (result.IsZero() && sink == nullptr) return NodeResult{};
    std::vector<std::uint32_t> all_clauses(compact_.clause_count());
    for (std::uint32_t c = 0; c < compact_.clause_count(); ++c) {
      all_clauses[c] = c;
    }
    result.Multiply(CountResidual(candidates, all_clauses,
                                  sink != nullptr ? &children : nullptr));
    if (sink != nullptr) trace_root = sink->And(children);
    return result.Finish();
  }();
  if (observed_) FlushLiveStats();
  FinalizeStats();
  if (sink != nullptr) sink->Root(trace_root);

  CountResult out;
  out.stop_reason = stop_;
  // Never stopped — exact even if governed (a stop that fired after the
  // last decision still unwound through brackets, so result.exact
  // implies no bracket anywhere) — or every subtree the stop interrupted
  // turned out to be resolvable without further decisions (or from the
  // cache): the count is exact after all.
  const bool exact =
      out.stop_reason == runtime::StopReason::kNone || result.exact;
  if (!exact && (sink != nullptr || !bounds_sound_)) {
    // A stopped trace is unusable (placeholder FALSE nodes), and with
    // negative weights the bracket certifies nothing.
    out.outcome = CountOutcome::kAborted;
    return out;
  }
  // The division undoing the constructor's scaling; a positive scale
  // keeps the bounds ordered.
  out.value = BigRational(std::move(result.value), weight_scale_);
  if (exact) {
    out.outcome = CountOutcome::kExact;
    out.upper = out.value;
  } else {
    out.outcome = CountOutcome::kBounds;
    out.upper = BigRational(std::move(result.upper), weight_scale_);
  }
  return out;
}

void DpllCounter::FinalizeStats() {
  stats_.cache_lookups = cache_.lookups();
  stats_.cache_hits = cache_.hits();
  stats_.cache_entries = cache_.size();
  stats_.cache_collisions = cache_.collisions();
  stats_.cache_insertions = cache_.insertions();
  stats_.cache_evictions = cache_.evictions();
  stats_.cache_bytes = cache_.bytes();
  if (live_.cache_lookups == nullptr) return;
  live_.cache_lookups->Add(stats_.cache_lookups);
  live_.cache_hits->Add(stats_.cache_hits);
  live_.cache_insertions->Add(stats_.cache_insertions);
  live_.cache_evictions->Add(stats_.cache_evictions);
}

DpllCounter::NodeResult DpllCounter::CountResidual(
    const std::vector<VarId>& candidates,
    const std::vector<std::uint32_t>& parent_clauses,
    std::vector<TraceSink::NodeId>* trace_children) {
  NodeScratch* scratch = AcquireScratch();
  std::vector<Component>& components = scratch->components;
  std::vector<VarId>& free_variables = scratch->free_variables;
  FindComponents(candidates, parent_clauses, &components, &free_variables);

  BoundsAccumulator result;
  result.SetOne();
  for (VarId v : free_variables) {
    result.Multiply(total_weight_[v]);
    if (trace_children != nullptr) {
      trace_children->push_back(options_.trace_sink->FreeVariable(v));
    } else if (result.IsZero()) {
      break;
    }
  }
  bool descend = trace_children != nullptr ? !components.empty()
                                           : !result.IsZero() &&
                                                 !components.empty();
  if (descend) {
    if (!options_.use_components && components.size() > 1) {
      // Decomposition disabled: fuse everything back into one residual.
      Component merged;
      for (Component& component : components) {
        merged.variables.insert(merged.variables.end(),
                                component.variables.begin(),
                                component.variables.end());
        merged.clauses.insert(merged.clauses.end(),
                              component.clauses.begin(),
                              component.clauses.end());
      }
      std::sort(merged.variables.begin(), merged.variables.end());
      std::sort(merged.clauses.begin(), merged.clauses.end());
      TraceSink::NodeId node = TraceSink::kNoNode;
      result.Multiply(CountComponentCached(
          merged, trace_children != nullptr ? &node : nullptr));
      if (trace_children != nullptr) trace_children->push_back(node);
    } else {
      if (components.size() > 1) ++stats_.component_splits;
      result.Multiply(CountComponents(components, trace_children));
    }
  }
  // Recycle the id-span buffers for later search nodes.
  for (Component& component : components) {
    component.variables.clear();
    component.clauses.clear();
    component_pool_.push_back(std::move(component));
  }
  components.clear();
  ReleaseScratch();
  return result.Finish();
}

DpllCounter::NodeResult DpllCounter::CountComponents(
    const std::vector<Component>& components,
    std::vector<TraceSink::NodeId>* trace_children) {
  // Tracing must visit every component even after a zero factor — the
  // AND node needs all its children.
  BoundsAccumulator result;
  result.SetOne();
  for (const Component& component : components) {
    TraceSink::NodeId node = TraceSink::kNoNode;
    result.Multiply(CountComponentCached(
        component, trace_children != nullptr ? &node : nullptr));
    if (trace_children != nullptr) {
      trace_children->push_back(node);
    } else if (result.IsZero()) {
      break;
    }
  }
  return result.Finish();
}

DpllCounter::NodeResult DpllCounter::CountComponentCached(
    const Component& component, TraceSink::NodeId* trace_node) {
  // A single-clause component has the closed form
  //   Π_v (w_v + w̄_v)  −  Π_{lit} weight(¬lit)
  // (all assignments minus the one falsifying the clause); computing it
  // beats both branching and a cache round-trip, and such components are
  // the bulk of what Tseitin-encoded lineages shatter into. Tracing skips
  // it: branching emits the clause's decision chain instead.
  if (!tracing() && component.clauses.size() == 1) {
    BigInt all(1);
    BigInt falsifying(1);
    for (Lit lit : compact_.Clause(component.clauses.front())) {
      VarId v = LitVariable(lit);
      if (trail_.IsAssigned(v)) continue;
      all *= total_weight_[v];
      falsifying *= literal_weight_[NegateLit(lit)];
    }
    all -= falsifying;
    return NodeResult{std::move(all), BigInt(), true};
  }
  if (!options_.use_cache) {
    return BranchOnComponent(component, trace_node);
  }
  std::uint64_t hash = PackKey(component);
  if (const ComponentCache::CachedCount* hit =
          cache_.Lookup(key_scratch_, hash)) {
    if (trace_node != nullptr) *trace_node = hit->node;
    return NodeResult{hit->value, BigInt(), true};
  }
  // Copy the scratch key out before recursing (nested lookups reuse it).
  ComponentKey key = key_scratch_;
  NodeResult result = BranchOnComponent(component, trace_node);
  // Only exact values may be cached: a key determines its exact count,
  // but says nothing about where a budget cut the subtree off.
  if (!result.exact) {
    // A stopped trace is unusable; the placeholder FALSE node keeps the
    // circuit well-formed while CountBounded() reports kAborted.
    if (trace_node != nullptr) *trace_node = options_.trace_sink->False();
    return result;
  }
  if (options_.fault != nullptr &&
      options_.fault->Count(runtime::FaultPoint::Site::kCacheInsert)) {
    // Simulated allocation failure on this insertion: skip the insert
    // and stop the search; the already-computed value is still exact.
    RequestStop(options_.fault->reason());
    return result;
  }
  cache_.Insert(std::move(key), hash, result.value,
                trace_node != nullptr ? *trace_node : TraceSink::kNoNode);
  return result;
}

runtime::StopReason DpllCounter::CheckStop() {
  if (stop_ != runtime::StopReason::kNone) return stop_;
  if (options_.fault != nullptr &&
      options_.fault->Count(runtime::FaultPoint::Site::kDecision)) {
    RequestStop(options_.fault->reason());
    return stop_;
  }
  if (options_.cancel != nullptr && options_.cancel->IsCancelled()) {
    RequestStop(runtime::StopReason::kCancelled);
    return stop_;
  }
  if (options_.budget != nullptr) {
    // The decision cap is charged exactly (a cap of K permits exactly K
    // decisions, and a cap of 0 stops before the first); the clock is
    // read every 64 ticks, starting with tick 0 so a 0ms deadline also
    // fires before any decision.
    runtime::StopReason reason = options_.budget->ChargeDecisions(1);
    if (reason == runtime::StopReason::kNone &&
        (governance_ticks_++ & 63) == 0) {
      reason = options_.budget->CheckDeadline();
    }
    if (reason != runtime::StopReason::kNone) {
      RequestStop(reason);
      return stop_;
    }
  }
  return runtime::StopReason::kNone;
}

void DpllCounter::RequestStop(runtime::StopReason reason) {
  if (stop_ == runtime::StopReason::kNone) stop_ = reason;
}

DpllCounter::NodeResult DpllCounter::BracketComponent(
    const Component& component) {
  ++stats_.aborted_subtrees;
  // Every total assignment of the component's unassigned variables has
  // weight <= Π (w + w̄), and with non-negative weights the sum over the
  // satisfying subset is sandwiched in [0, that product].
  BigInt upper(1);
  for (VarId v : component.variables) {
    if (!trail_.IsAssigned(v)) upper *= total_weight_[v];
  }
  return NodeResult{BigInt(0), std::move(upper), false};
}

DpllCounter::NodeResult DpllCounter::BranchOnComponent(
    const Component& component, TraceSink::NodeId* trace_node) {
  // The per-decision governance checkpoint: once a stop is requested, the
  // whole remaining subtree collapses to
  // its bracket and the recursion unwinds without further decisions.
  if (governed_ && CheckStop() != runtime::StopReason::kNone) {
    return BracketComponent(component);
  }
  VarId variable = PickBranchVariable(component);
  ++stats_.decisions;
  if (observed_ && (stats_.decisions & (kLiveFlushInterval - 1)) == 0) {
    FlushLiveStats();
  }
  NodeScratch* scratch = AcquireScratch();
  BoundsAccumulator total;
  BoundsAccumulator term;
  // Circuit children of the decision OR; conflicting branches contribute
  // no child (an omitted FALSE summand is weight-independent).
  std::vector<TraceSink::NodeId> or_children;
  std::vector<TraceSink::NodeId> branch_children;
  for (bool value : {true, false}) {
    const BigInt& weight = literal_weight_[MakeLit(variable, value)];
    // A zero-weight branch carries factor 0 — but only for *these*
    // weights, so tracing must still explore it for the circuit.
    if (weight.IsZero() && trace_node == nullptr) continue;
    std::size_t mark = trail_.Mark();
    if (trail_.AssignAndPropagate(MakeLit(variable, value),
                                  &stats_.unit_propagations)) {
      term.Set(weight);
      const std::vector<Lit>& trail = trail_.assignments();
      if (trace_node != nullptr) {
        branch_children.clear();
        // The decision literal itself (trail[mark]) plus its implications.
        for (std::size_t i = mark; i < trail.size(); ++i) {
          branch_children.push_back(options_.trace_sink->Literal(trail[i]));
        }
      }
      for (std::size_t i = mark + 1; i < trail.size(); ++i) {
        const BigInt& implied = literal_weight_[trail[i]];
        if (!implied.IsOne()) term.Multiply(implied);
      }
      if (!term.IsZero() || trace_node != nullptr) {
        std::vector<VarId>& remaining = scratch->remaining;
        remaining.clear();
        remaining.reserve(component.variables.size());
        for (VarId v : component.variables) {
          if (!trail_.IsAssigned(v)) remaining.push_back(v);
        }
        term.Multiply(CountResidual(remaining, component.clauses,
                                    trace_node != nullptr ? &branch_children
                                                          : nullptr));
      }
      total.Add(term);
      if (trace_node != nullptr) {
        or_children.push_back(options_.trace_sink->And(branch_children));
      }
    }
    trail_.UndoTo(mark);
  }
  if (trace_node != nullptr) {
    *trace_node = options_.trace_sink->Or(variable, or_children);
  }
  ReleaseScratch();
  return total.Finish();
}

void DpllCounter::BumpEpoch() {
  if (++epoch_ == 0) {  // wraparound: wipe every stamp and restart
    std::fill(variable_stamp_.begin(), variable_stamp_.end(), 0);
    std::fill(clause_mark_.begin(), clause_mark_.end(), ClauseMark{});
    std::fill(score_stamp_.begin(), score_stamp_.end(), 0);
    epoch_ = 1;
  }
}

void DpllCounter::FindComponents(
    const std::vector<VarId>& candidates,
    const std::vector<std::uint32_t>& parent_clauses,
    std::vector<Component>* components, std::vector<VarId>* free_variables) {
  BumpEpoch();
  for (VarId seed : candidates) {
    if (variable_stamp_[seed] == epoch_) continue;
    variable_stamp_[seed] = epoch_;
    Component component;
    if (!component_pool_.empty()) {
      component = std::move(component_pool_.back());
      component_pool_.pop_back();
    }
    std::uint32_t component_index =
        static_cast<std::uint32_t>(components->size());
    bool has_clauses = false;
    dfs_stack_.assign(1, seed);
    while (!dfs_stack_.empty()) {
      VarId v = dfs_stack_.back();
      dfs_stack_.pop_back();
      component.variables.push_back(v);
      for (std::uint32_t clause : compact_.VariableOccurrences(v)) {
        ClauseMark& mark = clause_mark_[clause];
        if (mark.stamp == epoch_) continue;
        if (trail_.ClauseSatisfied(clause)) continue;
        mark = ClauseMark{epoch_, component_index};
        has_clauses = true;
        for (Lit lit : compact_.Clause(clause)) {
          VarId other = LitVariable(lit);
          if (variable_stamp_[other] == epoch_) continue;
          variable_stamp_[other] = epoch_;
          if (trail_.IsAssigned(other)) continue;  // stamped, not visited
          dfs_stack_.push_back(other);
        }
      }
    }
    if (!has_clauses) {
      // All of the variable's clauses are satisfied: it is unconstrained
      // in this residual and contributes (w + w̄) directly.
      free_variables->push_back(seed);
      component.variables.clear();
      component_pool_.push_back(std::move(component));
    } else {
      components->push_back(std::move(component));
    }
  }
  if (components->empty()) return;
  // One sweep over the parent's (sorted) clause list hands every active
  // clause to its component in ascending id order, so cache signatures
  // are canonical without any per-component sort.
  for (std::uint32_t clause : parent_clauses) {
    if (clause_mark_[clause].stamp == epoch_) {
      (*components)[clause_mark_[clause].component].clauses.push_back(clause);
    }
  }
}

prop::VarId DpllCounter::PickBranchVariable(const Component& component) {
  // Dynamic literal-occurrence scores over the current component: branch
  // on the variable constrained by the most active clauses, ties to the
  // smallest id. (Weighting shorter clauses higher was tried and measured
  // strictly worse on the grounded-lineage workloads.)
  BumpEpoch();
  VarId best = component.variables.front();
  std::uint64_t best_score = 0;
  for (std::uint32_t clause : component.clauses) {
    for (Lit lit : compact_.Clause(clause)) {
      VarId v = LitVariable(lit);
      if (trail_.IsAssigned(v)) continue;
      if (score_stamp_[v] != epoch_) {
        score_stamp_[v] = epoch_;
        score_[v] = 0;
      }
      ++score_[v];
      if (score_[v] > best_score || (score_[v] == best_score && v < best)) {
        best = v;
        best_score = score_[v];
      }
    }
  }
  return best;
}

std::uint64_t DpllCounter::PackKey(const Component& component) {
  ComponentKey& key = key_scratch_;
  key.clear();
  std::uint64_t state = ComponentHashInit();
  for (std::uint32_t clause : component.clauses) {
    for (Lit lit : compact_.Clause(clause)) {
      if (!trail_.IsAssigned(LitVariable(lit))) {
        key.push_back(lit);
        state = ComponentHashStep(state, lit);
      }
    }
    key.push_back(kComponentKeySeparator);
    state = ComponentHashStep(state, kComponentKeySeparator);
  }
  return ComponentHashFinalize(state);
}

bool DpllCounter::IsSatisfiable(const prop::CnfFormula& cnf) {
  prop::CompactCnf compact = Flatten(cnf);
  Trail trail(&compact);
  std::uint64_t propagations = 0;
  if (!trail.PropagateExistingUnits(&propagations)) return false;
  std::function<bool()> solve = [&]() -> bool {
    // Find an active clause; with none left, the assignment extends to a
    // model.
    std::uint32_t target = compact.clause_count();
    for (std::uint32_t clause = 0; clause < compact.clause_count();
         ++clause) {
      if (!trail.ClauseSatisfied(clause)) {
        target = clause;
        break;
      }
    }
    if (target == compact.clause_count()) return true;
    Lit branch = 0;
    for (Lit lit : compact.Clause(target)) {
      if (!trail.IsAssigned(LitVariable(lit))) {
        branch = lit;
        break;
      }
    }
    for (Lit lit : {branch, NegateLit(branch)}) {
      std::size_t mark = trail.Mark();
      if (trail.AssignAndPropagate(lit, &propagations) && solve()) {
        return true;
      }
      trail.UndoTo(mark);
    }
    return false;
  };
  return solve();
}

numeric::BigRational CountWeightedModels(prop::CnfFormula cnf,
                                         WeightMap weights) {
  DpllCounter counter(std::move(cnf), std::move(weights));
  return counter.Count();
}

}  // namespace swfomc::wmc
