#include "api/engine.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "cq/acyclicity.h"
#include "cq/gamma_evaluator.h"
#include "fo2/cell_algorithm.h"
#include "grounding/grounded_wfomc.h"
#include "logic/parser.h"
#include "logic/transform.h"
#include "nnf/circuit_builder.h"
#include "numeric/combinatorics.h"
#include "reductions/spectrum.h"

namespace swfomc::api {

namespace {

using logic::Formula;
using logic::FormulaKind;
using numeric::BigRational;

// Recognizes ∃x⃗ (R_1(..) & .. & R_k(..)) with distinct positive atoms over
// variables only; returns the CQ, or nullopt with the reason in
// `obstacle` when one is given.
std::optional<cq::ConjunctiveQuery> AsConjunctiveQuery(
    const Formula& sentence, const logic::Vocabulary& vocabulary,
    std::string* obstacle = nullptr) {
  std::string unused;
  if (obstacle == nullptr) obstacle = &unused;
  *obstacle = "not an existential conjunctive query";
  Formula body = sentence;
  while (body->kind() == FormulaKind::kExists) body = body->child();
  std::vector<Formula> atoms;
  if (body->kind() == FormulaKind::kAtom) {
    atoms.push_back(body);
  } else if (body->kind() == FormulaKind::kAnd) {
    for (const Formula& child : body->children()) {
      if (child->kind() != FormulaKind::kAtom) return std::nullopt;
      atoms.push_back(child);
    }
  } else {
    return std::nullopt;
  }
  cq::ConjunctiveQuery query;
  for (const Formula& atom : atoms) {
    std::vector<std::string> variables;
    for (const logic::Term& term : atom->arguments()) {
      if (!term.IsVariable()) return std::nullopt;
      variables.push_back(term.name);
    }
    try {
      query.AddAtom(vocabulary.name(atom->relation()), std::move(variables));
    } catch (const std::invalid_argument&) {
      *obstacle = "conjunctive query with a self-join on relation " +
                  vocabulary.name(atom->relation());
      return std::nullopt;
    }
  }
  // All quantified variables must appear in atoms (and the sentence must
  // be closed).
  if (!logic::IsSentence(sentence)) return std::nullopt;
  return query;
}

// The γ-acyclic evaluator's inputs, extracted once per call: the
// conjunctive query plus each relation's weight pair, and the relations
// the query does not mention. Throws std::invalid_argument (prefixed with
// `who`) when the sentence is not a conjunctive query.
struct GammaQueryInputs {
  cq::ConjunctiveQuery query;
  std::map<std::string, std::pair<BigRational, BigRational>> weights;
  std::vector<std::size_t> other_arities;
  logic::WeightPairs other_weights;

  // The Theorem 3.6 evaluator counts over the query's relations; every
  // other relation of the vocabulary is unconstrained and multiplies the
  // count by its total weight, as on the other routes.
  BigRational Count(std::uint64_t domain_size) const {
    return cq::GammaAcyclicWFOMC(query, domain_size, weights) *
           numeric::TotalWeight(domain_size, other_arities, other_weights);
  }
};

GammaQueryInputs RequireGammaAcyclicQuery(const Formula& sentence,
                                          const logic::Vocabulary& vocabulary,
                                          const char* who) {
  auto query = AsConjunctiveQuery(sentence, vocabulary);
  if (!query.has_value()) {
    throw std::invalid_argument(std::string(who) +
                                ": sentence is not a conjunctive query");
  }
  GammaQueryInputs inputs;
  for (const auto& atom : query->atoms()) {
    logic::RelationId id = vocabulary.Require(atom.relation);
    inputs.weights[atom.relation] = {vocabulary.positive_weight(id),
                                     vocabulary.negative_weight(id)};
  }
  for (logic::RelationId id = 0; id < vocabulary.size(); ++id) {
    if (inputs.weights.contains(vocabulary.name(id))) continue;
    inputs.other_arities.push_back(vocabulary.arity(id));
    inputs.other_weights.emplace_back(vocabulary.positive_weight(id),
                                      vocabulary.negative_weight(id));
  }
  inputs.query = *std::move(query);
  return inputs;
}

// Forces every relation's weights to (1, 1) for the lifetime of the
// guard; the original vocabulary is restored on scope exit, including
// when the guarded computation throws.
class ScopedUnitWeights {
 public:
  explicit ScopedUnitWeights(logic::Vocabulary* vocabulary)
      : vocabulary_(vocabulary), saved_(*vocabulary) {
    vocabulary_->SetUnitWeights();
  }
  ~ScopedUnitWeights() { *vocabulary_ = std::move(saved_); }

  ScopedUnitWeights(const ScopedUnitWeights&) = delete;
  ScopedUnitWeights& operator=(const ScopedUnitWeights&) = delete;

 private:
  logic::Vocabulary* vocabulary_;
  logic::Vocabulary saved_;
};

// Turns an answer about ¬Φ into one about Φ, given the total weight T:
// an exact count c becomes T − c and a bracket [L, U] becomes
// [T − U, T − L], whose lower end is the reported value. An aborted
// answer certifies nothing either way and stays aborted.
void Complement(const BigRational& total, Engine::SweepPoint* answer) {
  switch (answer->outcome) {
    case Outcome::kExact:
      answer->value = total - answer->value;
      break;
    case Outcome::kBounds: {
      BoundsResult& bounds = *answer->bounds;
      BigRational lower = total - bounds.upper;
      bounds.upper = total - bounds.lower;
      bounds.lower = std::move(lower);
      answer->value = bounds.lower;
      break;
    }
    case Outcome::kAborted:
      break;
  }
}

// The sentence the polarity step hands to the solver: ¬Φ in negation
// normal form when it complements, Φ itself otherwise.
Formula CountedSentence(const Formula& sentence, bool complement) {
  return complement ? logic::ToNNF(logic::Not(sentence)) : sentence;
}

// Maps the counter's outcome onto the API enum.
Outcome FromCounterOutcome(wmc::DpllCounter::CountOutcome outcome) {
  switch (outcome) {
    case wmc::DpllCounter::CountOutcome::kExact: return Outcome::kExact;
    case wmc::DpllCounter::CountOutcome::kBounds: return Outcome::kBounds;
    case wmc::DpllCounter::CountOutcome::kAborted: return Outcome::kAborted;
  }
  return Outcome::kAborted;
}

// Moves one grounded count into a sweep point: the outcome and stop
// reason, the value (exact, or the certified lower bound; left zero when
// aborted) and, for kBounds, the bracket.
void AssignCount(wmc::DpllCounter::CountResult counted,
                 Engine::SweepPoint* answer) {
  answer->outcome = FromCounterOutcome(counted.outcome);
  answer->stop_reason = counted.stop_reason;
  if (answer->outcome == Outcome::kBounds) {
    answer->bounds = BoundsResult{counted.value, std::move(counted.upper)};
  }
  if (answer->outcome != Outcome::kAborted) {
    answer->value = std::move(counted.value);
  }
}

// Method names as metric-name fragments ('-' is not a valid metric
// character, so these diverge from ToString).
const char* MethodMetricSuffix(Method method) {
  switch (method) {
    case Method::kAuto: return "auto";
    case Method::kLiftedFO2: return "lifted_fo2";
    case Method::kGammaAcyclic: return "gamma_acyclic";
    case Method::kGrounded: return "grounded";
  }
  return "unknown";
}

// One engine-level query boundary: counts the route and polarity
// decisions, claims a query id, and opens a sampled span. Every entry
// point (WFOMC, sweep, compile) funnels through this so metric names
// cannot drift apart.
struct QueryScope {
  obs::TraceLog::Span span;
  std::uint64_t query_id = 0;

  QueryScope(const Engine::Options& options, const char* op, Method method,
             bool complement) {
    if (options.metrics != nullptr) {
      if (complement) {
        options.metrics
            ->GetCounter("swfomc_engine_complemented_total",
                         "Queries counted as T - WFOMC(not sentence)")
            ->Add();
      }
      options.metrics
          ->GetCounter("swfomc_engine_queries_total",
                       "Engine-level query entries (wfomc, sweep, compile)")
          ->Add();
      options.metrics
          ->GetCounter(std::string("swfomc_engine_route_") +
                           MethodMetricSuffix(method) + "_total",
                       "Queries routed to this method")
          ->Add();
    }
    if (options.trace != nullptr) {
      query_id = options.trace->NextQueryId();
      if (options.trace->SampledQuery(query_id)) {
        span = options.trace->BeginSpan(op);
        span.Num("query", query_id)
            .Str("method", ToString(method))
            .Str("polarity", complement ? "complement" : "direct");
      }
    }
  }
};

// The DPLL counter options one grounded search runs under: the call's
// governance plus the engine's observability, tagged with the query id.
wmc::DpllCounter::Options CounterOptions(const QueryOptions& query,
                                         const Engine::Options& engine,
                                         const QueryScope& scope) {
  wmc::DpllCounter::Options options;
  options.budget = query.budget;
  options.cancel = query.cancel;
  options.fault = query.fault;
  options.metrics = engine.metrics;
  options.trace = engine.trace;
  options.trace_query_id = scope.query_id;
  return options;
}

// Resident bytes of a vocabulary snapshot: the relation records, both
// copies of every name (the record and the by-name index key), the weight
// limb buffers, and an approximation of the index's per-entry node
// overhead. Counted so a circuit cache cannot be undercounted by many
// small circuits carrying long relation names.
std::size_t VocabularyBytes(const logic::Vocabulary& vocabulary) {
  std::size_t bytes = 0;
  for (logic::RelationId id = 0; id < vocabulary.size(); ++id) {
    bytes += sizeof(logic::Vocabulary::Relation) +
             2 * vocabulary.name(id).capacity() +
             vocabulary.positive_weight(id).HeapBytes() +
             vocabulary.negative_weight(id).HeapBytes() +
             4 * sizeof(void*);  // by-name hash node
  }
  return bytes;
}

}  // namespace

const char* ToString(Method method) {
  switch (method) {
    case Method::kAuto: return "auto";
    case Method::kLiftedFO2: return "lifted-fo2";
    case Method::kGammaAcyclic: return "gamma-acyclic";
    case Method::kGrounded: return "grounded";
  }
  return "?";
}

bool CountsComplement(const logic::Formula& sentence, Method method) {
  return (method == Method::kLiftedFO2 || method == Method::kGrounded) &&
         sentence->kind() == FormulaKind::kExists;
}

const char* ToString(Outcome outcome) {
  switch (outcome) {
    case Outcome::kExact: return "exact";
    case Outcome::kBounds: return "bounds";
    case Outcome::kAborted: return "aborted";
  }
  return "?";
}

const char* ToString(CompiledQuery::Kind kind) {
  switch (kind) {
    case CompiledQuery::Kind::kGrounded: return "grounded";
    case CompiledQuery::Kind::kLifted: return "lifted";
  }
  return "?";
}

Engine::Engine(logic::Vocabulary vocabulary)
    : Engine(std::move(vocabulary), Options{}) {}

Engine::Engine(logic::Vocabulary vocabulary, Options options)
    : vocabulary_(std::move(vocabulary)), options_(options) {}

logic::Formula Engine::Parse(const std::string& text) {
  return logic::Parse(text, &vocabulary_);
}

Method Engine::Route(const logic::Formula& sentence) const {
  return ExplainRoute(sentence).method;
}

RouteDecision Engine::ExplainRoute(const logic::Formula& sentence) const {
  // Rejection evidence for the grounded fallback's reason line.
  std::string cq_obstacle;

  // γ-acyclic CQ path: always counts Φ itself (CountsComplement).
  if (auto query = AsConjunctiveQuery(sentence, vocabulary_, &cq_obstacle)) {
    if (cq::IsGammaAcyclic(cq::BuildHypergraph(*query))) {
      return RouteDecision{
          .method = Method::kGammaAcyclic,
          .reason = "existential conjunctive query with a gamma-acyclic "
                    "hypergraph (Theorem 3.6 evaluator, PTIME)"};
    }
    cq_obstacle = "conjunctive query but its hypergraph is not gamma-acyclic";
  }

  std::optional<std::string_view> fo2_obstacle =
      fo2::LiftedObstacle(sentence, vocabulary_);
  if (!fo2_obstacle.has_value()) {
    return RouteDecision{
        .method = Method::kLiftedFO2,
        .complemented = CountsComplement(sentence, Method::kLiftedFO2),
        .reason = "FO² sentence over arity <= 2 without constants "
                  "(Appendix C cell algorithm, PTIME data complexity)"};
  }
  return RouteDecision{
      .method = Method::kGrounded,
      .complemented = CountsComplement(sentence, Method::kGrounded),
      .reason = "grounded fallback: " + cq_obstacle + "; " +
                std::string(*fo2_obstacle)};
}

Engine::Result Engine::WFOMC(const logic::Formula& sentence,
                             std::uint64_t domain_size, Method method,
                             const QueryOptions& query) {
  SweepResult sweep =
      CountRange(sentence, domain_size, domain_size, method, query);
  SweepPoint& point = sweep.points.front();
  return Result{.value = std::move(point.value),
                .method = sweep.method,
                .outcome = point.outcome,
                .bounds = std::move(point.bounds),
                .stop_reason = point.stop_reason,
                .grounded_stats = std::move(point.grounded_stats)};
}

Engine::SweepResult Engine::WFOMCSweep(const logic::Formula& sentence,
                                       std::uint64_t n_lo, std::uint64_t n_hi,
                                       Method method,
                                       const QueryOptions& query) {
  if (n_lo > n_hi) {
    throw std::invalid_argument("Engine::WFOMCSweep: n_lo > n_hi");
  }
  // One point per size; [0, 2^64-1] would wrap the count to zero.
  if (n_hi - n_lo == std::numeric_limits<std::uint64_t>::max()) {
    throw std::invalid_argument("Engine::WFOMCSweep: range too large");
  }
  return CountRange(sentence, n_lo, n_hi, method, query);
}

Engine::SweepResult Engine::CountRange(const logic::Formula& sentence,
                                       std::uint64_t n_lo, std::uint64_t n_hi,
                                       Method method,
                                       const QueryOptions& query) {
  // A one-point range is counted, traced and reported as a WFOMC call,
  // whichever entry point asked for it.
  const bool single_point = n_lo == n_hi;
  const char* who = single_point ? "Engine::WFOMC" : "Engine::WFOMCSweep";
  if (method == Method::kAuto) method = Route(sentence);
  const bool complement = CountsComplement(sentence, method);
  QueryScope scope(options_, single_point ? "wfomc" : "wfomc_sweep", method,
                   complement);
  if (single_point) {
    scope.span.Num("n", n_lo);
  } else {
    scope.span.Num("n_lo", n_lo).Num("n_hi", n_hi);
  }
  const Formula target = CountedSentence(sentence, complement);
  SweepResult sweep;
  sweep.method = method;
  sweep.points.resize(static_cast<std::size_t>(n_hi - n_lo + 1));
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    sweep.points[i].domain_size = n_lo + i;
  }
  switch (method) {
    case Method::kLiftedFO2: {
      // One compile, one Pascal-row table and one value column for the
      // whole range; each point is one evaluation of the circuit. The
      // circuit is compiled lazily at the first n >= 1 point: the normal
      // form preserves WFOMC only over non-empty domains, so n = 0 is
      // counted directly.
      std::optional<nnf::LiftedCircuit> circuit;
      nnf::LiftedCircuit::Weights weights;
      numeric::BinomialTable binomials;
      std::vector<BigRational> values;
      for (SweepPoint& point : sweep.points) {
        if (point.domain_size == 0) {
          point.value = fo2::LiftedWFOMC(target, vocabulary_, 0);
          continue;
        }
        if (!circuit.has_value()) {
          circuit = fo2::CompileLifted(target, vocabulary_);
          weights = circuit->DefaultWeights();
        }
        point.value = circuit->Evaluate(point.domain_size, weights,
                                        &binomials, &values);
      }
      break;
    }
    case Method::kGammaAcyclic: {
      GammaQueryInputs inputs =
          RequireGammaAcyclicQuery(sentence, vocabulary_, who);
      for (SweepPoint& point : sweep.points) {
        point.value = inputs.Count(point.domain_size);
      }
      break;
    }
    case Method::kGrounded: {
      // A shared budget keeps draining across points, so later points
      // degrade to bounds first (the bracket guarantee holds per point).
      wmc::DpllCounter::Options counter_options =
          CounterOptions(query, options_, scope);
      for (SweepPoint& point : sweep.points) {
        AssignCount(grounding::GroundedWFOMCBounded(
                        target, vocabulary_, point.domain_size,
                        counter_options, &point.grounded_stats.emplace()),
                    &point);
      }
      break;
    }
    case Method::kAuto:
      throw std::logic_error(std::string(who) + ": unreachable");
  }
  for (SweepPoint& point : sweep.points) {
    if (complement) {
      Complement(vocabulary_.TotalWeight(point.domain_size), &point);
    }
    if (point.outcome == Outcome::kAborted ||
        (point.outcome == Outcome::kBounds &&
         sweep.outcome == Outcome::kExact)) {
      sweep.outcome = point.outcome;
    }
    if (sweep.stop_reason == runtime::StopReason::kNone) {
      sweep.stop_reason = point.stop_reason;
    }
  }
  if (single_point) scope.span.Str("outcome", ToString(sweep.outcome));
  return sweep;
}

const CompiledQuery::Grounded& CompiledQuery::grounded(
    const char* who) const {
  if (const Grounded* payload = std::get_if<Grounded>(&payload_)) {
    return *payload;
  }
  throw std::invalid_argument(std::string(who) +
                              ": this circuit is lifted, not grounded");
}

const CompiledQuery::Lifted& CompiledQuery::lifted(const char* who) const {
  if (const Lifted* payload = std::get_if<Lifted>(&payload_)) {
    return *payload;
  }
  throw std::invalid_argument(std::string(who) +
                              ": this circuit is grounded, not lifted");
}

const nnf::Circuit& CompiledQuery::circuit() const {
  return grounded("CompiledQuery::circuit").circuit;
}

const nnf::LiftedCircuit& CompiledQuery::lifted_circuit() const {
  return lifted("CompiledQuery::lifted_circuit").circuit;
}

bool CompiledQuery::complemented() const {
  if (const Grounded* payload = std::get_if<Grounded>(&payload_)) {
    return payload->circuit.complement().has_value();
  }
  return std::get<Lifted>(payload_).circuit.complement().has_value();
}

std::uint64_t CompiledQuery::domain_size() const {
  const Grounded* payload = std::get_if<Grounded>(&payload_);
  return payload != nullptr ? payload->domain_size : 0;
}

std::uint32_t CompiledQuery::tuple_count() const {
  const Grounded* payload = std::get_if<Grounded>(&payload_);
  return payload != nullptr
             ? static_cast<std::uint32_t>(payload->variable_relation.size())
             : 0;
}

const numeric::BigRational& CompiledQuery::compile_count() const {
  return grounded("CompiledQuery::compile_count").compile_count;
}

const wmc::DpllCounter::Stats& CompiledQuery::compile_stats() const {
  return grounded("CompiledQuery::compile_stats").compile_stats;
}

const fo2::LiftedCompileStats& CompiledQuery::lifted_compile_stats() const {
  return lifted("CompiledQuery::lifted_compile_stats").compile_stats;
}

std::size_t CompiledQuery::MemoryBytes() const {
  std::size_t bytes = VocabularyBytes(vocabulary_);
  if (const Grounded* payload = std::get_if<Grounded>(&payload_)) {
    return bytes + payload->circuit.MemoryBytes() +
           payload->variable_relation.capacity() * sizeof(logic::RelationId) +
           payload->compile_count.HeapBytes();
  }
  return bytes + std::get<Lifted>(payload_).circuit.MemoryBytes();
}

numeric::BigRational CompiledQuery::Evaluate(
    std::uint64_t domain_size, const std::vector<RelationWeights>& reweights,
    nnf::Circuit::EvalArena* arena) const {
  if (const Lifted* payload = std::get_if<Lifted>(&payload_)) {
    return payload->circuit.Evaluate(
        domain_size, LiftedWeights(reweights), nullptr,
        arena != nullptr ? &arena->rational_values : nullptr);
  }
  const Grounded& payload = std::get<Grounded>(payload_);
  if (domain_size != payload.domain_size) {
    throw std::invalid_argument(
        "CompiledQuery::Evaluate: this grounded circuit was compiled at "
        "domain size " +
        std::to_string(payload.domain_size) + " and cannot evaluate at " +
        std::to_string(domain_size) +
        "; recompile at that size or compile a lifted circuit");
  }
  // The circuit's no-arena overload makes a one-shot arena itself.
  wmc::WeightMap weights = GroundWeights(reweights);
  if (arena == nullptr) return payload.circuit.Evaluate(weights);
  return payload.circuit.Evaluate(weights, arena);
}

logic::WeightPairs CompiledQuery::WeightPairsFor(
    const std::vector<RelationWeights>& reweights) const {
  logic::WeightPairs weights = vocabulary_.Weights();
  for (const RelationWeights& reweight : reweights) {
    auto id = vocabulary_.Find(reweight.relation);
    if (!id.has_value()) {
      throw std::invalid_argument(
          "CompiledQuery::Evaluate: unknown relation '" + reweight.relation +
          "'");
    }
    weights[*id] = {reweight.positive, reweight.negative};
  }
  return weights;
}

nnf::LiftedCircuit::Weights CompiledQuery::LiftedWeights(
    const std::vector<RelationWeights>& reweights) const {
  const nnf::LiftedCircuit& circuit =
      lifted("CompiledQuery::LiftedWeights").circuit;
  // The circuit's relation table is the extended (Scott/Skolem)
  // vocabulary, whose prefix is the original vocabulary in id order — so
  // the snapshot's weights apply by id, and the appended Def/Sk
  // predicates keep their fixed (1,1)/(1,-1) weights.
  nnf::LiftedCircuit::Weights weights = WeightPairsFor(reweights);
  const nnf::LiftedCircuit::Weights defaults = circuit.DefaultWeights();
  weights.insert(weights.end(), defaults.begin() + weights.size(),
                 defaults.end());
  return weights;
}

wmc::WeightMap CompiledQuery::GroundWeights(
    const std::vector<RelationWeights>& reweights) const {
  const Grounded& payload = grounded("CompiledQuery::GroundWeights");
  // Start from the compile-time per-relation weights, overlay the
  // replacements, then expand per ground tuple. Tseitin auxiliaries
  // (ids >= tuple_count()) keep the WeightMap default (1, 1).
  logic::WeightPairs by_relation = WeightPairsFor(reweights);
  wmc::WeightMap weights(payload.circuit.variable_count());
  for (prop::VarId v = 0; v < payload.variable_relation.size(); ++v) {
    const auto& [positive, negative] =
        by_relation[payload.variable_relation[v]];
    weights.Set(v, positive, negative);
  }
  return weights;
}

bool Engine::CanCompileLifted(const logic::Formula& sentence) const {
  return fo2::CanCompileLifted(sentence, vocabulary_);
}

CompileResult Engine::Compile(const logic::Formula& sentence,
                              const CompileOptions& options,
                              const QueryOptions& query) {
  Method method = options.method;
  if (method == Method::kAuto) {
    // A lifted circuit answers n >= 1 only, so domain size 0 grounds.
    method = options.domain_size != 0u && CanCompileLifted(sentence)
                 ? Method::kLiftedFO2
                 : Method::kGrounded;
  }
  const bool complement = CountsComplement(sentence, method);
  QueryScope scope(options_, "compile", method, complement);
  if (options.domain_size.has_value()) {
    scope.span.Num("n", *options.domain_size);
  }
  const Formula target = CountedSentence(sentence, complement);
  CompileResult result;
  result.method = method;
  switch (method) {
    case Method::kLiftedFO2: {
      // Polynomial in the sentence; runs ungoverned like every lifted
      // path. options.domain_size is irrelevant — the circuit answers
      // every n >= 1.
      CompiledQuery::Lifted lifted;
      lifted.circuit =
          fo2::CompileLifted(target, vocabulary_, &lifted.compile_stats);
      if (complement) lifted.circuit.SetComplement(vocabulary_.Arities());
      result.compiled = CompiledQuery(vocabulary_, std::move(lifted));
      return result;
    }
    case Method::kGammaAcyclic:
      throw std::invalid_argument(
          "Engine::Compile: the gamma-acyclic evaluator has no circuit "
          "form; compile with method grounded or lifted-fo2");
    case Method::kGrounded:
      break;
    case Method::kAuto:
      throw std::logic_error("Engine::Compile: unreachable");
  }
  if (!options.domain_size.has_value()) {
    throw std::invalid_argument(
        "Engine::Compile: the grounded compiler fixes the domain size at "
        "compile time; set CompileOptions::domain_size (only liftable FO² "
        "sentences compile without one)");
  }
  std::uint64_t domain_size = *options.domain_size;

  // The same grounded instance as Method::kGrounded, with the counter in
  // tracing mode: the count falls out of the compile for free, and the
  // circuit's variable layout matches TupleIndex exactly.
  grounding::GroundedInstance instance =
      grounding::GroundInstance(target, vocabulary_, domain_size);
  const grounding::TupleIndex& index = instance.index;

  nnf::CircuitBuilder builder(instance.cnf.variable_count);
  CompiledQuery::Grounded grounded;
  wmc::DpllCounter::CountResult counted;
  {
    // Scoped so the counter and its trace memo are freed before Finish
    // allocates the renumbered circuit and its evaluation tape.
    wmc::DpllCounter::Options counter_options =
        CounterOptions(query, options_, scope);
    counter_options.trace_sink = &builder;
    wmc::DpllCounter counter(std::move(instance.cnf),
                             std::move(instance.weights), counter_options);
    counted = counter.CountBounded();
    grounded.compile_stats = counter.stats();
  }
  result.stop_reason = counted.stop_reason;
  if (counted.outcome != wmc::DpllCounter::CountOutcome::kExact) {
    // A stopped trace contains placeholder FALSE nodes for the abandoned
    // subtrees — wrong for some weight vector — so the whole circuit is
    // discarded. (Unlike counting, compilation has no usable partial
    // result; the caller retries with a larger budget or falls back to
    // per-query counting.)
    result.outcome = Outcome::kAborted;
    scope.span.Str("outcome", ToString(result.outcome));
    return result;
  }
  // Variables past the tuples are Tseitin auxiliaries, weighted (1, 1)
  // by GroundWeights under every query.
  grounded.circuit =
      builder.Finish(static_cast<std::uint32_t>(index.TupleCount()));
  if (complement) {
    grounded.circuit.SetComplement(
        static_cast<std::uint32_t>(index.TupleCount()));
  }
  grounded.domain_size = domain_size;
  grounded.variable_relation.reserve(
      static_cast<std::size_t>(index.TupleCount()));
  for (prop::VarId v = 0; v < index.TupleCount(); ++v) {
    grounded.variable_relation.push_back(index.AtomOf(v).relation);
  }
  grounded.compile_count =
      complement ? vocabulary_.TotalWeight(domain_size) - counted.value
                 : std::move(counted.value);
  result.outcome = Outcome::kExact;
  result.compiled = CompiledQuery(vocabulary_, std::move(grounded));
  scope.span.Str("outcome", ToString(result.outcome));
  return result;
}

namespace {

// FOMC/Probability return a single number with no channel for bounds, so
// a budget-stopped count behind them must throw rather than silently
// hand back a lower bound.
void RequireExact(const Engine::Result& result, const char* who) {
  if (result.outcome != Outcome::kExact) {
    throw std::runtime_error(
        std::string(who) + ": budget exhausted (stop reason: " +
        runtime::ToString(result.stop_reason) +
        "); use WFOMC() to consume anytime bounds");
  }
}

}  // namespace

numeric::BigInt Engine::FOMC(const logic::Formula& sentence,
                             std::uint64_t domain_size, Method method) {
  ScopedUnitWeights unit_weights(&vocabulary_);
  Result result = WFOMC(sentence, domain_size, method);
  RequireExact(result, "Engine::FOMC");
  return result.value.ToInteger();
}

numeric::BigRational Engine::Probability(const logic::Formula& sentence,
                                         std::uint64_t domain_size,
                                         Method method) {
  Result numerator_result = WFOMC(sentence, domain_size, method);
  RequireExact(numerator_result, "Engine::Probability");
  BigRational numerator = std::move(numerator_result.value);
  BigRational normalizer = vocabulary_.TotalWeight(domain_size);
  if (normalizer.IsZero()) {
    throw std::domain_error("Engine::Probability: zero normalizer");
  }
  return numerator / normalizer;
}

numeric::BigRational Engine::Mu(const logic::Formula& sentence,
                                std::uint64_t domain_size) {
  ScopedUnitWeights unit_weights(&vocabulary_);
  return Probability(sentence, domain_size);
}

bool Engine::HasModelOfSize(const logic::Formula& sentence,
                            std::uint64_t domain_size) {
  return reductions::HasModelOfSize(sentence, vocabulary_, domain_size);
}

}  // namespace swfomc::api
