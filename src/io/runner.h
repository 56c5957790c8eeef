#ifndef SWFOMC_IO_RUNNER_H_
#define SWFOMC_IO_RUNNER_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "io/cnf_format.h"
#include "io/json.h"
#include "io/model_format.h"
#include "io/nnf_format.h"
#include "nnf/circuit.h"
#include "nnf/lifted_circuit.h"
#include "numeric/rational.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/budget.h"
#include "wmc/dpll_counter.h"

namespace swfomc::io {

/// Execution knobs shared by every CLI subcommand.
struct RunOptions {
  /// Overrides the model's `method` directive when set (the CLI's
  /// --method flag).
  std::optional<api::Method> method_override;
  /// Resource envelope (the CLI's --budget-ms / --max-decisions /
  /// --max-memory flags). When any is set, a fresh runtime::Budget is
  /// armed per input — the deadline clock starts when that input's
  /// evaluation starts, not at process launch — and passed as the call's
  /// api::QueryOptions::budget; a grounded search that exhausts it
  /// reports outcome "bounds" (or "aborted") instead of running away.
  runtime::Limits limits;
  /// Live observability (the CLI's --metrics-out / --trace-out flags;
  /// not owned, null = disabled). Forwarded into the engine and the DPLL
  /// counter; never changes any result bit.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceLog* trace = nullptr;
};

/// Everything one model evaluation produced, ready for serialization:
/// the counts (one point per domain size), the routing decision and its
/// reason, counter statistics where the grounded engine ran, wall-clock
/// time, and the outcome of the `expect` check.
struct ModelRunReport {
  std::string source;    // file path (or "<input>")
  std::string name;      // the model directive, may be empty
  std::string sentence;  // canonical rendering
  /// What Auto routing would pick and why — always reported, even when a
  /// method was forced, so logs show when a run overrode the router.
  api::RouteDecision route;
  /// The method that actually computed the counts, and whether it
  /// counted them through the complement (api::CountsComplement).
  api::Method method_used = api::Method::kGrounded;
  bool complemented = false;
  std::uint64_t domain_lo = 0;
  std::uint64_t domain_hi = 0;
  std::vector<api::Engine::SweepPoint> points;  // ascending, >= 1 entry
  /// Worst outcome across the points (kAborted > kBounds > kExact) and
  /// the first stop reason, for governed runs; kExact/kNone otherwise.
  api::Outcome outcome = api::Outcome::kExact;
  runtime::StopReason stop_reason = runtime::StopReason::kNone;
  /// DPLL counter statistics; present for single-point grounded runs
  /// (a sweep runs one search per point, so it reports none).
  std::optional<wmc::DpllCounter::Stats> grounded_stats;
  double elapsed_seconds = 0.0;
  std::optional<numeric::BigRational> expected;  // the plain `expect`
  /// The `expect N = VALUE` directives, ascending in N.
  std::vector<std::pair<std::uint64_t, numeric::BigRational>> point_expects;
  /// Every point with an applicable expectation must pass — a matching
  /// `expect N = VALUE`, or the plain `expect` at the largest domain
  /// size. Exact points must equal the expectation, bounds points must
  /// bracket it (lower <= expect <= upper), aborted points fail. A
  /// mid-sweep mismatch fails the whole check, not just the last point.
  bool check_passed = true;
  /// Domain size of the first point that failed its check, when any did.
  std::optional<std::uint64_t> first_failed_point;
};

/// Evaluates a parsed model through api::Engine::WFOMCSweep (a single
/// domain size is the one-point sweep) and assembles the report. Throws
/// std::invalid_argument when the model has no `domain` directive — a
/// domain-less model is a compile-only workload.
ModelRunReport RunModel(const ModelSpec& spec, const RunOptions& options = {},
                        std::string source = "<input>");

/// One weighted CNF count through wmc::DpllCounter.
struct CnfRunReport {
  std::string source;
  std::uint32_t variables = 0;
  std::uint64_t clauses = 0;
  /// The exact count, or the certified lower bound when `outcome` is
  /// kBounds (see `upper`).
  numeric::BigRational count;
  numeric::BigRational upper;  // == count unless outcome is kBounds
  api::Outcome outcome = api::Outcome::kExact;
  runtime::StopReason stop_reason = runtime::StopReason::kNone;
  wmc::DpllCounter::Stats stats;
  double elapsed_seconds = 0.0;
};

CnfRunReport RunWeightedCnf(const WeightedCnf& instance,
                            const RunOptions& options = {},
                            std::string source = "<input>");

/// One model compiled into a circuit (`swfomc compile`): the report plus
/// the CompiledQuery itself, so callers can serialize the circuit or keep
/// serving weight vectors from it. Routing follows Engine::Compile:
/// liftable FO² sentences (under method auto or lifted-fo2) compile into
/// a domain-parametric lifted circuit — no `domain` directive needed,
/// though method auto grounds a `domain 0` model — and everything else
/// runs the (sequential) grounded trace at the model's largest domain
/// size, governed by a budget armed from RunOptions::limits.
struct CompileRunReport {
  std::string source;
  std::string name;
  std::string sentence;
  api::RouteDecision route;  // what Auto *would* run, for the record
  /// Which circuit kind came out (meaningful when outcome is kExact), and
  /// whether it counts ¬Φ (api::CountsComplement).
  api::CompiledQuery::Kind kind = api::CompiledQuery::Kind::kGrounded;
  bool complemented = false;
  /// False for a domain-less (lifted-only) model; domain_size is then 0
  /// and `count` is not computed.
  bool has_domain = false;
  std::uint64_t domain_size = 0;
  std::uint32_t variables = 0;  // grounded: ground tuples + Tseitin aux
  /// The count at `domain_size` under the model's weights (grounded: the
  /// compile-time count; lifted: one Evaluate(domain_size) pass). Unset
  /// when the model has no domain.
  numeric::BigRational count;
  /// kAborted when the budget stopped the grounded trace (the partial
  /// circuit is discarded — compilation has no bounds mode); kExact
  /// otherwise. The lifted compiler is polynomial and never aborts.
  api::Outcome outcome = api::Outcome::kExact;
  runtime::StopReason stop_reason = runtime::StopReason::kNone;
  wmc::DpllCounter::Stats search_stats;          // grounded kind
  nnf::Circuit::Stats circuit_stats;             // grounded kind
  fo2::LiftedCompileStats lifted_stats;          // lifted kind
  nnf::LiftedCircuit::Stats lifted_circuit_stats;  // lifted kind
  double compile_seconds = 0.0;
  /// Where the `.nnf` was written ("" when not requested).
  std::string output_path;
  std::optional<numeric::BigRational> expected;  // the `expect` directive
  bool check_passed = true;
};

struct CompileOutcome {
  CompileRunReport report;
  /// Set exactly when report.outcome is kExact.
  std::optional<api::CompiledQuery> query;
};

CompileOutcome RunCompile(const ModelSpec& spec,
                          const RunOptions& options = {},
                          std::string source = "<input>");

/// The serialized form of a compiled model: the circuit, the weight map
/// the model's vocabulary induces, and the model's `expect` as the `e`
/// line so `swfomc eval --check` can verify the pipeline end to end.
NnfDocument MakeNnfDocument(const api::CompiledQuery& query,
                            std::optional<numeric::BigRational> expect);

/// The serialized form of a lifted compile: the domain-parametric circuit
/// with its relation table, plus one pinned (domain size, value) pair —
/// typically (domain_hi, count) from the compile report — as the `e`
/// line, which doubles as `swfomc eval`'s default domain size.
LiftedNnfDocument MakeLiftedNnfDocument(
    const api::CompiledQuery& query,
    std::optional<std::pair<std::uint64_t, numeric::BigRational>> expect);

/// One circuit evaluation (`swfomc eval`), either dialect. Grounded:
/// d-DNNF well-formedness audit (std::runtime_error on violation — a
/// malformed circuit is an input error), then a linear evaluation under
/// the document's weights. Lifted: Evaluate(n) under the stored relation
/// weights, where n comes from the --domain flag or defaults to the `e`
/// line's domain size.
struct EvalRunReport {
  std::string source;
  api::CompiledQuery::Kind kind = api::CompiledQuery::Kind::kGrounded;
  std::uint32_t variables = 0;        // grounded kind
  nnf::Circuit::Stats circuit_stats;  // grounded kind
  nnf::LiftedCircuit::Stats lifted_circuit_stats;  // lifted kind
  std::uint64_t domain_size = 0;      // lifted kind: the n evaluated at
  /// The file's `t` marker was set: `value` is the total weight minus the
  /// circuit's own value.
  bool complemented = false;
  numeric::BigRational value;
  double elapsed_seconds = 0.0;
  std::optional<numeric::BigRational> expected;  // the `e` line
  bool check_passed = true;
};

EvalRunReport RunEval(const NnfDocument& document,
                      std::string source = "<input>");

/// Lifted-dialect evaluation. `domain_size` overrides the `e` line's
/// default; throws std::runtime_error when neither supplies an n. The
/// `e` line's value is checked only when evaluating at its own domain
/// size (a different --domain computes a different point).
EvalRunReport RunEval(const LiftedNnfDocument& document,
                      std::optional<std::uint64_t> domain_size = std::nullopt,
                      std::string source = "<input>");

/// Steady-clock seconds elapsed since `start` (the reports' timings).
double SecondsSince(std::chrono::steady_clock::time_point start);

/// Adds the "outcome" field, and "stop_reason" unless it is kNone, to a
/// JSON object (the governed-run fields of reports and serve results).
void AddOutcomeFields(JsonValue* json, api::Outcome outcome,
                      runtime::StopReason stop_reason);

/// JSON renderings of the reports (the `swfomc` output schema; see the
/// README's "File formats and the swfomc CLI" section). All exact values
/// are strings; timings are numbers.
JsonValue ToJson(const ModelRunReport& report);
JsonValue ToJson(const CnfRunReport& report);
JsonValue ToJson(const CompileRunReport& report);
JsonValue ToJson(const EvalRunReport& report);
JsonValue ToJson(const wmc::DpllCounter::Stats& stats);
JsonValue ToJson(const nnf::Circuit::Stats& stats);
JsonValue ToJson(const nnf::LiftedCircuit::Stats& stats);
JsonValue ToJson(const fo2::LiftedCompileStats& stats);

}  // namespace swfomc::io

#endif  // SWFOMC_IO_RUNNER_H_
