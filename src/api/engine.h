#ifndef SWFOMC_API_ENGINE_H_
#define SWFOMC_API_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "fo2/lifted_compiler.h"
#include "logic/formula.h"
#include "logic/vocabulary.h"
#include "nnf/circuit.h"
#include "nnf/lifted_circuit.h"
#include "numeric/bigint.h"
#include "numeric/rational.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wmc/dpll_counter.h"
#include "wmc/weights.h"

namespace swfomc::api {

/// Which algorithm answered a query.
enum class Method {
  kAuto,          // request: let the engine route
  kLiftedFO2,     // Appendix C cell algorithm (PTIME data complexity)
  kGammaAcyclic,  // Theorem 3.6 evaluator
  kGrounded,      // lineage + Tseitin + DPLL counter (exponential)
};

const char* ToString(Method method);

/// The polarity step's rule: true when `method` is kLiftedFO2 or
/// kGrounded and the sentence's outermost quantifier is ∃. Such a
/// sentence is counted through its complement, WFOMC(Φ) = T −
/// WFOMC(¬Φ), with T the vocabulary's total weight
/// (logic::Vocabulary::TotalWeight) and ¬Φ in negation normal form, on
/// the same route. ¬Φ is then ∀-prefixed: its grounded lineage is a
/// conjunction of clauses rather than one wide disjunction, and its
/// lifted normal form needs no Skolem predicate for the outer ∃. The
/// γ-acyclic route keeps Φ, since the complement of a conjunctive query
/// is not one.
bool CountsComplement(const logic::Formula& sentence, Method method);

/// How a query ended under a resource envelope. Ungoverned queries (and
/// every lifted-path query — the PTIME routes never exhaust a budget) are
/// kExact. kBounds carries certified anytime bounds; kAborted means the
/// budget fired where no certified answer exists (negative weights, or a
/// partial compilation trace).
enum class Outcome {
  kExact,
  kBounds,
  kAborted,
};

const char* ToString(Outcome outcome);

/// Certified anytime bounds: lower <= exact <= upper, from the explored
/// part of a budget-stopped search (non-negative weights only).
struct BoundsResult {
  numeric::BigRational lower;
  numeric::BigRational upper;
};

/// The outcome of Auto routing, with the evidence behind it: `method` is
/// what Route() returns and `reason` a one-line human-readable
/// justification (why the chosen path applies, or — for the grounded
/// fallback — why each lifted path was rejected). Surfaced through the
/// CLI's JSON output so every run records which algorithm answered and
/// why.
struct RouteDecision {
  Method method = Method::kGrounded;
  /// CountsComplement(sentence, method): whether `method` counts ¬Φ and
  /// subtracts it from the total weight.
  bool complemented = false;
  std::string reason;
};

/// One relation's replacement weights for CompiledQuery evaluation.
struct RelationWeights {
  std::string relation;
  numeric::BigRational positive{1};
  numeric::BigRational negative{1};
};

/// A sentence compiled into a reusable arithmetic circuit
/// (Engine::Compile). Two kinds exist, distinguished by kind():
///
///   * kGrounded — a d-DNNF over ground tuples, compiled at a fixed
///     domain size: the exponential DPLL search over the grounded
///     lineage runs once and its trace is kept, so every subsequent
///     weight vector — a learning-loop step, a per-tenant reweighting —
///     is answered by one linear circuit pass instead of a fresh count.
///   * kLifted — a domain-parametric first-order circuit with counting
///     nodes (liftable FO² sentences only): one compile answers *every*
///     (domain size, weight vector) pair in time polynomial in n.
///
/// The compiled object is immutable and self-contained: it carries the
/// circuit, the compile-time vocabulary snapshot, and — for the grounded
/// kind — the ground-tuple → relation map that turns per-relation weights
/// into the circuit's per-variable weights. Either kind's nodes may be
/// the circuit of ¬Φ (complemented(), the Engine's polarity step); the
/// circuit then carries the complement itself (nnf::Circuit::
/// SetComplement, nnf::LiftedCircuit::SetComplement), so its own Evaluate
/// — and this class's — still answers WFOMC(Φ). Accessors documented as
/// one kind's throw std::invalid_argument on the other kind.
class CompiledQuery {
 public:
  enum class Kind { kGrounded, kLifted };

  Kind kind() const {
    return std::holds_alternative<Grounded>(payload_) ? Kind::kGrounded
                                                      : Kind::kLifted;
  }
  /// The grounded d-DNNF, whose Evaluate(GroundWeights(w)) is WFOMC(Φ);
  /// when complemented() its nodes are ¬Φ's and complement() is set.
  /// Grounded kind only.
  const nnf::Circuit& circuit() const;
  /// The domain-parametric circuit, whose Evaluate(n, LiftedWeights(w))
  /// is WFOMC(Φ, n); when complemented() its nodes are ¬Φ's and
  /// complement() is set. Lifted kind only.
  const nnf::LiftedCircuit& lifted_circuit() const;
  /// The fixed compile-time domain size of a grounded circuit; 0 for
  /// kLifted (a lifted circuit has no fixed size — pass n to Evaluate).
  std::uint64_t domain_size() const;
  const logic::Vocabulary& vocabulary() const { return vocabulary_; }
  /// Ground tuple variables [0, tuple_count); higher variable ids are
  /// Tseitin auxiliaries and always weigh (1, 1). 0 for kLifted.
  std::uint32_t tuple_count() const;
  /// True when the circuit's nodes count ¬Φ (CountsComplement) and the
  /// circuit subtracts their value from the total weight.
  bool complemented() const;
  /// Φ's count computed while compiling (under the compile-time
  /// weights); identical to WFOMC(Φ, n, Method::kGrounded). Grounded kind
  /// only — a lifted compile is domain-parametric and produces no single
  /// count.
  const numeric::BigRational& compile_count() const;
  /// The compiling search's counters (cache_* describe the trace memo).
  /// Grounded kind only.
  const wmc::DpllCounter::Stats& compile_stats() const;
  /// The lifted compiler's counters. Lifted kind only.
  const fo2::LiftedCompileStats& lifted_compile_stats() const;

  /// Approximate resident bytes: the circuit's arenas plus the ground
  /// tuple → relation map, the compile count's limb buffers, and the
  /// vocabulary snapshot's strings and weights. Lets a circuit cache
  /// bound its footprint (swfomc serve's LRU).
  std::size_t MemoryBytes() const;

  /// The one evaluation entry point: WFOMC(Φ, n) with the listed
  /// relations' weights replaced (relations not listed keep their
  /// compile-time weights; zero and negative weights are fine — neither
  /// circuit kind depends on the weights). For the grounded kind
  /// `domain_size` must equal domain_size() (std::invalid_argument
  /// otherwise — a grounded circuit answers one n); the lifted kind
  /// accepts any n >= 1. `arena` is optional caller-owned scratch reused
  /// across calls (one arena per evaluating thread makes steady-state
  /// evaluation allocation-free; see circuit.h). Throws
  /// std::invalid_argument for an unknown relation name.
  numeric::BigRational Evaluate(std::uint64_t domain_size,
                                const std::vector<RelationWeights>& reweights,
                                nnf::Circuit::EvalArena* arena = nullptr) const;

  /// The per-variable weight map `reweights` induces over the grounded
  /// circuit. Exposed for serialization (.nnf weight lines). Grounded
  /// kind only.
  wmc::WeightMap GroundWeights(
      const std::vector<RelationWeights>& reweights) const;

  /// The per-relation weight vector `reweights` induces over the lifted
  /// circuit's (extended) relation table. Lifted kind only.
  nnf::LiftedCircuit::Weights LiftedWeights(
      const std::vector<RelationWeights>& reweights) const;

 private:
  friend class Engine;

  struct Grounded {
    nnf::Circuit circuit;
    std::uint64_t domain_size = 0;
    std::vector<logic::RelationId> variable_relation;  // tuple -> relation
    numeric::BigRational compile_count;
    wmc::DpllCounter::Stats compile_stats;
  };
  struct Lifted {
    nnf::LiftedCircuit circuit;
    fo2::LiftedCompileStats compile_stats;
  };

  using Payload = std::variant<Grounded, Lifted>;

  CompiledQuery(logic::Vocabulary vocabulary, Payload payload)
      : vocabulary_(std::move(vocabulary)), payload_(std::move(payload)) {}

  /// The compile-time relation weights with `reweights` laid over them,
  /// in vocabulary id order.
  logic::WeightPairs WeightPairsFor(
      const std::vector<RelationWeights>& reweights) const;

  /// The payload of the required kind; std::invalid_argument (prefixed
  /// with `who`) on the other kind.
  const Grounded& grounded(const char* who) const;
  const Lifted& lifted(const char* who) const;

  logic::Vocabulary vocabulary_;
  Payload payload_;
};

const char* ToString(CompiledQuery::Kind kind);

/// Per-call resource governance — the only way to govern a query. Every
/// member is optional and not owned; null leaves that resource
/// unlimited. It applies to the grounded search (WFOMC, WFOMCSweep and
/// the grounded compile trace); the lifted paths are polynomial and run
/// ungoverned. Because it travels with the call, concurrent callers
/// sharing an Engine (the serve daemon) govern each request without
/// touching shared engine state.
struct QueryOptions {
  /// Resource envelope (deadline, decision cap, memory ceiling). On
  /// exhaustion WFOMC/WFOMCSweep report Outcome::kBounds (or kAborted)
  /// and Compile reports kAborted instead of spinning. One budget shared
  /// by every point of a sweep keeps draining across them.
  runtime::Budget* budget = nullptr;
  /// Cooperative cancellation, polled once per decision.
  runtime::CancelToken* cancel = nullptr;
  /// Deterministic fault injection for tests.
  runtime::FaultPoint* fault = nullptr;
};

/// What Engine::Compile should produce.
struct CompileOptions {
  /// Required by the grounded compiler (it fixes n at compile time);
  /// ignored by the lifted compiler, whose circuit is domain-parametric.
  std::optional<std::uint64_t> domain_size;
  /// kAuto compiles liftable sentences into lifted circuits — unless
  /// `domain_size` is 0, which a lifted circuit cannot evaluate — and
  /// falls back to the grounded trace (at `domain_size`) otherwise.
  /// kLiftedFO2 and kGrounded force their compiler; kGammaAcyclic has no
  /// circuit form and is rejected.
  Method method = Method::kAuto;
};

/// The outcome of Engine::Compile, shaped like Engine::Result: which
/// compiler ran, how it ended, and — exactly when `outcome` is kExact —
/// the compiled circuit. A grounded compilation the budget stops
/// mid-trace cannot be salvaged (the partial circuit would be wrong for
/// some weight vectors), so the trace is discarded and reported kAborted.
struct CompileResult {
  Outcome outcome = Outcome::kExact;
  runtime::StopReason stop_reason = runtime::StopReason::kNone;
  Method method = Method::kGrounded;
  std::optional<CompiledQuery> compiled;
};

/// The library facade: one entry point for symmetric WFOMC over a weighted
/// vocabulary. `Auto` routing sends
///   * FO² sentences (arity <= 2, no constants) to the lifted cell
///     algorithm,
///   * existentially-quantified conjunctions of distinct positive atoms
///     whose hypergraph is γ-acyclic to the Theorem 3.6 evaluator,
///   * everything else to the grounded DPLL engine.
/// Routing never changes the answer, only the complexity. After routing,
/// the polarity step (CountsComplement) counts an ∃-prefixed sentence on
/// the lifted or grounded route through its ∀-prefixed complement,
/// WFOMC(Φ) = T − WFOMC(¬Φ). WFOMC, WFOMCSweep and Compile share it; a
/// governed bracket [L, U] on ¬Φ becomes [T − U, T − L].
class Engine {
 public:
  /// Engine-wide observability; queries are governed per call
  /// (QueryOptions).
  struct Options {
    /// Live observability (not owned; null = disabled). The registry
    /// receives per-method route counters and is forwarded into the
    /// DPLL counter; the trace log gets one span per WFOMC/WFOMCSweep/
    /// Compile call (with a fresh query id) plus the counter's progress
    /// events. Neither changes any result bit.
    obs::MetricsRegistry* metrics = nullptr;
    obs::TraceLog* trace = nullptr;
  };

  explicit Engine(logic::Vocabulary vocabulary);
  Engine(logic::Vocabulary vocabulary, Options options);

  const logic::Vocabulary& vocabulary() const { return vocabulary_; }
  logic::Vocabulary* mutable_vocabulary() { return &vocabulary_; }

  /// Parses a sentence against (and possibly extending) the vocabulary.
  logic::Formula Parse(const std::string& text);

  struct Result {
    /// The exact count when `outcome` is kExact; the certified lower
    /// bound (== bounds->lower) for kBounds; zero for kAborted.
    numeric::BigRational value;
    Method method = Method::kGrounded;
    Outcome outcome = Outcome::kExact;
    /// Set exactly when `outcome` is kBounds.
    std::optional<BoundsResult> bounds;
    /// Why a governed query stopped (kNone when it ran to completion).
    runtime::StopReason stop_reason = runtime::StopReason::kNone;
    /// The DPLL counter's search/cache counters when `method` was
    /// kGrounded (the lifted paths never run the counter): the stats of
    /// the search that ran, which counted ¬Φ when the query was
    /// complemented.
    std::optional<wmc::DpllCounter::Stats> grounded_stats;
  };

  /// Symmetric WFOMC(Φ, n, w, w̄), governed by `query` (see
  /// QueryOptions; the default is ungoverned): the one-point sweep
  /// WFOMCSweep(Φ, n, n), returned field for field as a Result. Its trace
  /// span is "wfomc" with `n` and the outcome.
  Result WFOMC(const logic::Formula& sentence, std::uint64_t domain_size,
               Method method = Method::kAuto, const QueryOptions& query = {});

  struct SweepPoint {
    std::uint64_t domain_size = 0;
    numeric::BigRational value;
    Outcome outcome = Outcome::kExact;
    std::optional<BoundsResult> bounds;
    runtime::StopReason stop_reason = runtime::StopReason::kNone;
    /// This point's DPLL search/cache counters on the grounded route, as
    /// in Result::grounded_stats; unset on the lifted routes.
    std::optional<wmc::DpllCounter::Stats> grounded_stats;
  };
  struct SweepResult {
    Method method = Method::kGrounded;
    /// kExact when every point is exact; else the worst point outcome
    /// (kAborted dominates kBounds). A shared budget keeps draining
    /// across points, so later points typically degrade first… to
    /// brackets computed in O(component) time.
    Outcome outcome = Outcome::kExact;
    runtime::StopReason stop_reason = runtime::StopReason::kNone;
    std::vector<SweepPoint> points;  // one per n, ascending
  };

  /// Batched WFOMC(Φ, n, w, w̄) for every n in [n_lo, n_hi] — the
  /// domain-size sweep the paper's experiments run. Routes once and
  /// reuses the shared structure a point-by-point loop rebuilds:
  ///   * lifted FO²: the universal (Scott/Skolem) normal form is
  ///     constructed once and one binomial table serves every point;
  ///   * γ-acyclic: the conjunctive query and its weight map are
  ///     extracted once;
  ///   * grounded: one DPLL count per point, in ascending n.
  /// Results are bit-identical to calling WFOMC per point, since WFOMC
  /// is this sweep over [n, n]. Throws std::invalid_argument when
  /// n_lo > n_hi. `query` governs the whole sweep (one budget drains
  /// across every point). Its trace span is "wfomc_sweep" with `n_lo`
  /// and `n_hi`, except that a one-point range is traced as the WFOMC
  /// call it is ("wfomc" with `n`).
  SweepResult WFOMCSweep(const logic::Formula& sentence, std::uint64_t n_lo,
                         std::uint64_t n_hi, Method method = Method::kAuto,
                         const QueryOptions& query = {});

  /// The compile entry point. Routing (under kAuto):
  ///   * liftable FO² sentences (CanCompileLifted) compile once into a
  ///     domain-parametric lifted circuit — no domain size needed, every
  ///     n >= 1 answered by CompiledQuery::Evaluate(n, reweights);
  ///   * everything else — and a liftable sentence at domain_size 0 —
  ///     runs the grounded path (lineage + Tseitin: every sentence the
  ///     grounded method accepts is compilable): the DPLL counter
  ///     searches once in tracing mode at the required
  ///     options.domain_size, and the trace is the circuit.
  /// Either compiler gets ¬Φ when CountsComplement(Φ, method) holds.
  /// Grounded compilation cost is one sequential grounded count with
  /// zero-weight pruning off, governed by `query`; each Evaluate
  /// afterwards is linear in the circuit. Throws std::invalid_argument
  /// when the grounded path is taken without a domain size, and for
  /// Method::kGammaAcyclic (the Theorem 3.6 evaluator has no circuit
  /// form).
  CompileResult Compile(const logic::Formula& sentence,
                        const CompileOptions& options = {},
                        const QueryOptions& query = {});

  /// True when the sentence is liftable (FO², arity <= 2, no constants):
  /// Compile under Method::kAuto then produces a lifted circuit for any
  /// domain size but 0.
  bool CanCompileLifted(const logic::Formula& sentence) const;

  /// FOMC(Φ, n): WFOMC with all weights forced to (1, 1).
  numeric::BigInt FOMC(const logic::Formula& sentence,
                       std::uint64_t domain_size,
                       Method method = Method::kAuto);

  /// Pr(Φ) under the symmetric tuple-independent distribution, i.e.
  /// WFOMC(Φ) / WFOMC(true). Requires w + w̄ != 0 for every relation.
  numeric::BigRational Probability(const logic::Formula& sentence,
                                   std::uint64_t domain_size,
                                   Method method = Method::kAuto);

  /// The asymptotic fraction µ_n(Φ) of labeled structures satisfying Φ
  /// (Section 1, "0-1 Laws"): Probability with weights (1, 1).
  numeric::BigRational Mu(const logic::Formula& sentence,
                          std::uint64_t domain_size);

  /// Spectrum membership: does Φ have a model of size n?
  bool HasModelOfSize(const logic::Formula& sentence,
                      std::uint64_t domain_size);

  /// The routing decision Auto would take (for inspection/testing).
  Method Route(const logic::Formula& sentence) const;

  /// Route() plus the reason for the decision — the introspection the
  /// CLI's reports are built on. Route(s) == ExplainRoute(s).method.
  RouteDecision ExplainRoute(const logic::Formula& sentence) const;

 private:
  /// The one counting routine behind WFOMC and WFOMCSweep, over a valid
  /// [n_lo, n_hi]: routes once, applies the polarity step, counts every
  /// point on the chosen route, complements each point and folds their
  /// outcomes into the sweep's.
  SweepResult CountRange(const logic::Formula& sentence, std::uint64_t n_lo,
                         std::uint64_t n_hi, Method method,
                         const QueryOptions& query);

  logic::Vocabulary vocabulary_;
  Options options_;
};

}  // namespace swfomc::api

#endif  // SWFOMC_API_ENGINE_H_
