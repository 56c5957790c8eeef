#include "io/runner.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "logic/printer.h"

namespace swfomc::io {

namespace {

/// The `expect` check under governance: exact answers must match, bounds
/// must bracket, an aborted point verifies nothing.
bool PointMatchesExpected(const api::Engine::SweepPoint& point,
                          const numeric::BigRational& expect) {
  switch (point.outcome) {
    case api::Outcome::kExact:
      return point.value == expect;
    case api::Outcome::kBounds:
      return point.bounds.has_value() && point.bounds->lower <= expect &&
             expect <= point.bounds->upper;
    case api::Outcome::kAborted:
      return false;
  }
  return false;
}

/// The expectation that applies to the point at domain size `n`, if any:
/// an `expect N = VALUE` directive wins; the plain `expect` covers the
/// largest domain size.
const numeric::BigRational* ExpectForPoint(const ModelRunReport& report,
                                           std::uint64_t n) {
  for (const auto& [domain_size, value] : report.point_expects) {
    if (domain_size == n) return &value;
  }
  if (report.expected.has_value() && n == report.domain_hi) {
    return &*report.expected;
  }
  return nullptr;
}

// The `route` block: Auto's method and reason, and the polarity the
// count ran in ("complement" when it counted ¬Φ and subtracted it from
// the total weight).
JsonValue RouteJson(const api::RouteDecision& route, bool complemented) {
  JsonValue json = JsonValue::MakeObject();
  json.Add("method", JsonValue::MakeString(api::ToString(route.method)));
  json.Add("polarity",
           JsonValue::MakeString(complemented ? "complement" : "direct"));
  json.Add("reason", JsonValue::MakeString(route.reason));
  return json;
}

}  // namespace

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void AddOutcomeFields(JsonValue* json, api::Outcome outcome,
                      runtime::StopReason stop_reason) {
  json->Add("outcome", JsonValue::MakeString(api::ToString(outcome)));
  if (stop_reason != runtime::StopReason::kNone) {
    json->Add("stop_reason",
              JsonValue::MakeString(runtime::ToString(stop_reason)));
  }
}

ModelRunReport RunModel(const ModelSpec& spec, const RunOptions& options,
                        std::string source) {
  if (!spec.has_domain) {
    throw std::invalid_argument(
        source + ": model has no 'domain' directive; 'run' needs one "
        "(only 'compile' accepts a domain-less model)");
  }
  ModelRunReport report;
  report.source = std::move(source);
  report.name = spec.name;
  report.domain_lo = spec.domain_lo;
  report.domain_hi = spec.domain_hi;

  api::Engine::Options engine_options;
  engine_options.metrics = options.metrics;
  engine_options.trace = options.trace;
  api::Engine engine(spec.vocabulary, engine_options);
  report.sentence =
      logic::ToString(spec.sentence, engine.vocabulary());
  report.route = engine.ExplainRoute(spec.sentence);

  api::Method method =
      options.method_override.value_or(spec.method);
  if (method == api::Method::kAuto) method = report.route.method;
  report.method_used = method;
  report.complemented = api::CountsComplement(spec.sentence, method);

  runtime::Budget budget;
  api::QueryOptions query;
  query.budget = options.limits.Arm(&budget);

  auto start = std::chrono::steady_clock::now();
  api::Engine::SweepResult sweep = engine.WFOMCSweep(
      spec.sentence, spec.domain_lo, spec.domain_hi, method, query);
  report.elapsed_seconds = SecondsSince(start);
  report.points = std::move(sweep.points);
  report.outcome = sweep.outcome;
  report.stop_reason = sweep.stop_reason;
  if (!spec.IsSweep()) {
    report.grounded_stats = std::move(report.points.front().grounded_stats);
  }

  report.expected = spec.expect;
  report.point_expects = spec.point_expects;
  // Check every point that has an applicable expectation — a sweep's
  // intermediate sizes included. (This used to look only at
  // points.back(), so a mid-sweep mismatch sailed through --check.)
  for (const api::Engine::SweepPoint& point : report.points) {
    const numeric::BigRational* expect =
        ExpectForPoint(report, point.domain_size);
    if (expect == nullptr) continue;
    if (!PointMatchesExpected(point, *expect)) {
      report.check_passed = false;
      if (!report.first_failed_point.has_value()) {
        report.first_failed_point = point.domain_size;
      }
    }
  }
  return report;
}

CnfRunReport RunWeightedCnf(const WeightedCnf& instance,
                            const RunOptions& options, std::string source) {
  CnfRunReport report;
  report.source = std::move(source);
  report.variables = instance.cnf.variable_count;
  report.clauses = instance.cnf.clauses.size();

  wmc::DpllCounter::Options counter_options;
  counter_options.metrics = options.metrics;
  counter_options.trace = options.trace;
  runtime::Budget budget;
  counter_options.budget = options.limits.Arm(&budget);

  // The cnf path bypasses api::Engine, so it claims its own query id for
  // trace correlation and wraps the count in a span itself.
  obs::TraceLog::Span span;
  if (options.trace != nullptr) {
    counter_options.trace_query_id = options.trace->NextQueryId();
    if (options.trace->SampledQuery(counter_options.trace_query_id)) {
      span = options.trace->BeginSpan("cnf_count");
      span.Num("query", counter_options.trace_query_id);
      span.Num("variables", static_cast<std::uint64_t>(report.variables));
      span.Num("clauses", report.clauses);
    }
  }
  wmc::DpllCounter counter(instance.cnf, instance.weights, counter_options);

  auto start = std::chrono::steady_clock::now();
  wmc::DpllCounter::CountResult counted = counter.CountBounded();
  report.elapsed_seconds = SecondsSince(start);
  span.Finish();
  switch (counted.outcome) {
    case wmc::DpllCounter::CountOutcome::kExact:
      report.outcome = api::Outcome::kExact;
      report.count = counted.value;
      report.upper = std::move(counted.value);
      break;
    case wmc::DpllCounter::CountOutcome::kBounds:
      report.outcome = api::Outcome::kBounds;
      report.count = std::move(counted.value);
      report.upper = std::move(counted.upper);
      break;
    case wmc::DpllCounter::CountOutcome::kAborted:
      report.outcome = api::Outcome::kAborted;
      break;
  }
  report.stop_reason = counted.stop_reason;
  report.stats = counter.stats();
  return report;
}

CompileOutcome RunCompile(const ModelSpec& spec, const RunOptions& options,
                          std::string source) {
  CompileOutcome outcome;
  CompileRunReport& report = outcome.report;
  report.source = std::move(source);
  report.name = spec.name;
  report.has_domain = spec.has_domain;
  report.domain_size = spec.has_domain ? spec.domain_hi : 0;

  api::Engine::Options engine_options;
  engine_options.metrics = options.metrics;
  engine_options.trace = options.trace;
  api::Engine engine(spec.vocabulary, engine_options);
  report.sentence = logic::ToString(spec.sentence, engine.vocabulary());
  report.route = engine.ExplainRoute(spec.sentence);

  api::CompileOptions compile_options;
  if (spec.has_domain) compile_options.domain_size = spec.domain_hi;
  compile_options.method = options.method_override.value_or(spec.method);
  runtime::Budget budget;
  api::QueryOptions query;
  query.budget = options.limits.Arm(&budget);

  auto start = std::chrono::steady_clock::now();
  api::CompileResult compiled =
      engine.Compile(spec.sentence, compile_options, query);
  report.compile_seconds = SecondsSince(start);

  report.outcome = compiled.outcome;
  report.stop_reason = compiled.stop_reason;
  report.complemented = api::CountsComplement(spec.sentence, compiled.method);
  report.expected = spec.expect;
  if (compiled.outcome != api::Outcome::kExact) {
    // The partial trace was discarded; there is no circuit and nothing to
    // check an `expect` against.
    report.check_passed = !report.expected.has_value();
    return outcome;
  }
  outcome.query = std::move(compiled.compiled);
  report.kind = outcome.query->kind();

  if (report.kind == api::CompiledQuery::Kind::kGrounded) {
    report.variables = outcome.query->circuit().variable_count();
    report.count = outcome.query->compile_count();
    report.search_stats = outcome.query->compile_stats();
    report.circuit_stats = outcome.query->circuit().ComputeStats();
  } else {
    report.lifted_stats = outcome.query->lifted_compile_stats();
    report.lifted_circuit_stats =
        outcome.query->lifted_circuit().ComputeStats();
    // A lifted circuit has no compile-time count; when the model pins a
    // domain, one evaluation pass reports the count there (and gives the
    // `expect` check something to compare against).
    if (spec.has_domain) {
      report.count = outcome.query->Evaluate(spec.domain_hi, {});
    }
  }
  if (report.expected.has_value()) {
    report.check_passed = report.count == *report.expected;
  }
  return outcome;
}

NnfDocument MakeNnfDocument(const api::CompiledQuery& query,
                            std::optional<numeric::BigRational> expect) {
  NnfDocument document;
  document.circuit = query.circuit();
  document.weights = query.GroundWeights({});
  document.weights.EnsureSize(document.circuit.variable_count());
  document.expect = std::move(expect);
  return document;
}

LiftedNnfDocument MakeLiftedNnfDocument(
    const api::CompiledQuery& query,
    std::optional<std::pair<std::uint64_t, numeric::BigRational>> expect) {
  LiftedNnfDocument document;
  document.circuit = query.lifted_circuit();
  document.expect = std::move(expect);
  return document;
}

EvalRunReport RunEval(const NnfDocument& document, std::string source) {
  EvalRunReport report;
  report.source = std::move(source);
  report.variables = document.circuit.variable_count();
  report.circuit_stats = document.circuit.ComputeStats();

  std::string violation;
  if (!document.circuit.Validate(&violation)) {
    throw std::runtime_error(report.source +
                             ": circuit is not well-formed d-DNNF: " +
                             violation);
  }
  auto start = std::chrono::steady_clock::now();
  report.complemented = document.circuit.complement().has_value();
  report.value = document.circuit.Evaluate(document.weights);
  report.elapsed_seconds = SecondsSince(start);

  report.expected = document.expect;
  if (report.expected.has_value()) {
    report.check_passed = report.value == *report.expected;
  }
  return report;
}

EvalRunReport RunEval(const LiftedNnfDocument& document,
                      std::optional<std::uint64_t> domain_size,
                      std::string source) {
  EvalRunReport report;
  report.source = std::move(source);
  report.kind = api::CompiledQuery::Kind::kLifted;
  report.lifted_circuit_stats = document.circuit.ComputeStats();

  if (!domain_size.has_value() && document.expect.has_value()) {
    domain_size = document.expect->first;
  }
  if (!domain_size.has_value()) {
    throw std::runtime_error(
        report.source +
        ": lifted circuit evaluation needs a domain size; pass --domain N "
        "(the file has no 'e N VALUE' line to default from)");
  }
  report.domain_size = *domain_size;

  auto start = std::chrono::steady_clock::now();
  report.complemented = document.circuit.complement().has_value();
  report.value = document.circuit.Evaluate(*domain_size);
  report.elapsed_seconds = SecondsSince(start);

  // The e line pins one (n, value) pair; it verifies nothing at any
  // other domain size.
  if (document.expect.has_value() &&
      document.expect->first == *domain_size) {
    report.expected = document.expect->second;
    report.check_passed = report.value == *report.expected;
  }
  return report;
}

JsonValue ToJson(const wmc::DpllCounter::Stats& stats) {
  JsonValue json = JsonValue::MakeObject();
  json.Add("decisions", JsonValue::MakeNumber(stats.decisions));
  json.Add("unit_propagations",
           JsonValue::MakeNumber(stats.unit_propagations));
  json.Add("component_splits", JsonValue::MakeNumber(stats.component_splits));
  json.Add("cache_lookups", JsonValue::MakeNumber(stats.cache_lookups));
  json.Add("cache_hits", JsonValue::MakeNumber(stats.cache_hits));
  json.Add("cache_entries", JsonValue::MakeNumber(stats.cache_entries));
  json.Add("cache_collisions", JsonValue::MakeNumber(stats.cache_collisions));
  json.Add("cache_insertions", JsonValue::MakeNumber(stats.cache_insertions));
  json.Add("cache_evictions", JsonValue::MakeNumber(stats.cache_evictions));
  json.Add("cache_bytes", JsonValue::MakeNumber(stats.cache_bytes));
  json.Add("aborted_subtrees", JsonValue::MakeNumber(stats.aborted_subtrees));
  return json;
}

JsonValue ToJson(const ModelRunReport& report) {
  JsonValue json = JsonValue::MakeObject();
  json.Add("file", JsonValue::MakeString(report.source));
  if (!report.name.empty()) {
    json.Add("name", JsonValue::MakeString(report.name));
  }
  json.Add("sentence", JsonValue::MakeString(report.sentence));
  json.Add("method", JsonValue::MakeString(api::ToString(report.method_used)));

  json.Add("route", RouteJson(report.route, report.complemented));

  JsonValue domain = JsonValue::MakeObject();
  domain.Add("lo", JsonValue::MakeNumber(report.domain_lo));
  domain.Add("hi", JsonValue::MakeNumber(report.domain_hi));
  json.Add("domain", std::move(domain));

  JsonValue points = JsonValue::MakeArray();
  for (const api::Engine::SweepPoint& point : report.points) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Add("n", JsonValue::MakeNumber(point.domain_size));
    switch (point.outcome) {
      case api::Outcome::kExact:
        entry.Add("wfomc", JsonValue::MakeString(point.value.ToString()));
        break;
      case api::Outcome::kBounds:
        entry.Add("lower",
                  JsonValue::MakeString(point.bounds->lower.ToString()));
        entry.Add("upper",
                  JsonValue::MakeString(point.bounds->upper.ToString()));
        break;
      case api::Outcome::kAborted:
        break;
    }
    if (point.outcome != api::Outcome::kExact ||
        report.outcome != api::Outcome::kExact) {
      AddOutcomeFields(&entry, point.outcome, point.stop_reason);
    }
    if (const numeric::BigRational* expect =
            ExpectForPoint(report, point.domain_size)) {
      entry.Add("expect", JsonValue::MakeString(expect->ToString()));
      entry.Add("check", JsonValue::MakeString(
                             PointMatchesExpected(point, *expect) ? "pass"
                                                                  : "fail"));
    }
    points.array.push_back(std::move(entry));
  }
  json.Add("points", std::move(points));
  if (report.outcome != api::Outcome::kExact) {
    AddOutcomeFields(&json, report.outcome, report.stop_reason);
  }

  if (report.grounded_stats.has_value()) {
    json.Add("stats", ToJson(*report.grounded_stats));
  }
  json.Add("elapsed_seconds", JsonValue::MakeNumber(report.elapsed_seconds));
  if (report.expected.has_value()) {
    json.Add("expect", JsonValue::MakeString(report.expected->ToString()));
  }
  if (report.expected.has_value() || !report.point_expects.empty()) {
    json.Add("check",
             JsonValue::MakeString(report.check_passed ? "pass" : "fail"));
  }
  return json;
}

JsonValue ToJson(const nnf::Circuit::Stats& stats) {
  JsonValue json = JsonValue::MakeObject();
  json.Add("nodes", JsonValue::MakeNumber(stats.nodes));
  json.Add("constant_nodes", JsonValue::MakeNumber(stats.constant_nodes));
  json.Add("literal_nodes", JsonValue::MakeNumber(stats.literal_nodes));
  json.Add("and_nodes", JsonValue::MakeNumber(stats.and_nodes));
  json.Add("or_nodes", JsonValue::MakeNumber(stats.or_nodes));
  json.Add("edges", JsonValue::MakeNumber(stats.edges));
  json.Add("depth", JsonValue::MakeNumber(stats.depth));
  return json;
}

JsonValue ToJson(const nnf::LiftedCircuit::Stats& stats) {
  JsonValue json = JsonValue::MakeObject();
  json.Add("nodes", JsonValue::MakeNumber(stats.nodes));
  json.Add("constant_nodes", JsonValue::MakeNumber(stats.constant_nodes));
  json.Add("weight_nodes", JsonValue::MakeNumber(stats.weight_nodes));
  json.Add("and_nodes", JsonValue::MakeNumber(stats.and_nodes));
  json.Add("or_nodes", JsonValue::MakeNumber(stats.or_nodes));
  json.Add("count_nodes", JsonValue::MakeNumber(stats.count_nodes));
  json.Add("edges", JsonValue::MakeNumber(stats.edges));
  json.Add("depth", JsonValue::MakeNumber(stats.depth));
  return json;
}

JsonValue ToJson(const fo2::LiftedCompileStats& stats) {
  JsonValue json = JsonValue::MakeObject();
  json.Add("unary_predicates",
           JsonValue::MakeNumber(stats.unary_predicates));
  json.Add("binary_predicates",
           JsonValue::MakeNumber(stats.binary_predicates));
  json.Add("zeroary_predicates",
           JsonValue::MakeNumber(stats.zeroary_predicates));
  json.Add("cells", JsonValue::MakeNumber(stats.cells));
  json.Add("valid_cells", JsonValue::MakeNumber(stats.valid_cells));
  return json;
}

JsonValue ToJson(const CompileRunReport& report) {
  JsonValue json = JsonValue::MakeObject();
  json.Add("file", JsonValue::MakeString(report.source));
  if (!report.name.empty()) {
    json.Add("name", JsonValue::MakeString(report.name));
  }
  json.Add("sentence", JsonValue::MakeString(report.sentence));
  bool lifted = report.kind == api::CompiledQuery::Kind::kLifted;
  json.Add("method", JsonValue::MakeString(lifted ? "compile-lifted"
                                                  : "compile-grounded"));
  json.Add("kind", JsonValue::MakeString(api::ToString(report.kind)));

  json.Add("route", RouteJson(report.route, report.complemented));

  if (report.has_domain) {
    json.Add("n", JsonValue::MakeNumber(report.domain_size));
  }
  if (report.outcome == api::Outcome::kExact) {
    if (lifted) {
      if (report.has_domain) {
        json.Add("wfomc", JsonValue::MakeString(report.count.ToString()));
      }
      json.Add("circuit", ToJson(report.lifted_circuit_stats));
      json.Add("stats", ToJson(report.lifted_stats));
    } else {
      json.Add("variables", JsonValue::MakeNumber(
                                static_cast<std::uint64_t>(report.variables)));
      json.Add("wfomc", JsonValue::MakeString(report.count.ToString()));
      json.Add("circuit", ToJson(report.circuit_stats));
      json.Add("stats", ToJson(report.search_stats));
    }
  } else {
    AddOutcomeFields(&json, report.outcome, report.stop_reason);
  }
  json.Add("compile_seconds", JsonValue::MakeNumber(report.compile_seconds));
  if (!report.output_path.empty()) {
    json.Add("output", JsonValue::MakeString(report.output_path));
  }
  if (report.expected.has_value()) {
    json.Add("expect", JsonValue::MakeString(report.expected->ToString()));
    json.Add("check",
             JsonValue::MakeString(report.check_passed ? "pass" : "fail"));
  }
  return json;
}

JsonValue ToJson(const EvalRunReport& report) {
  JsonValue json = JsonValue::MakeObject();
  json.Add("file", JsonValue::MakeString(report.source));
  json.Add("kind", JsonValue::MakeString(api::ToString(report.kind)));
  if (report.kind == api::CompiledQuery::Kind::kLifted) {
    json.Add("n", JsonValue::MakeNumber(report.domain_size));
    json.Add("circuit", ToJson(report.lifted_circuit_stats));
  } else {
    json.Add("variables", JsonValue::MakeNumber(
                              static_cast<std::uint64_t>(report.variables)));
    json.Add("circuit", ToJson(report.circuit_stats));
  }
  json.Add("polarity", JsonValue::MakeString(report.complemented
                                                 ? "complement"
                                                 : "direct"));
  json.Add("wmc", JsonValue::MakeString(report.value.ToString()));
  json.Add("elapsed_seconds", JsonValue::MakeNumber(report.elapsed_seconds));
  if (report.expected.has_value()) {
    json.Add("expect", JsonValue::MakeString(report.expected->ToString()));
    json.Add("check",
             JsonValue::MakeString(report.check_passed ? "pass" : "fail"));
  }
  return json;
}

JsonValue ToJson(const CnfRunReport& report) {
  JsonValue json = JsonValue::MakeObject();
  json.Add("file", JsonValue::MakeString(report.source));
  json.Add("variables", JsonValue::MakeNumber(
                            static_cast<std::uint64_t>(report.variables)));
  json.Add("clauses", JsonValue::MakeNumber(report.clauses));
  switch (report.outcome) {
    case api::Outcome::kExact:
      json.Add("wmc", JsonValue::MakeString(report.count.ToString()));
      break;
    case api::Outcome::kBounds:
      json.Add("lower", JsonValue::MakeString(report.count.ToString()));
      json.Add("upper", JsonValue::MakeString(report.upper.ToString()));
      break;
    case api::Outcome::kAborted:
      break;
  }
  if (report.outcome != api::Outcome::kExact) {
    AddOutcomeFields(&json, report.outcome, report.stop_reason);
  }
  json.Add("stats", ToJson(report.stats));
  json.Add("elapsed_seconds", JsonValue::MakeNumber(report.elapsed_seconds));
  return json;
}

}  // namespace swfomc::io
