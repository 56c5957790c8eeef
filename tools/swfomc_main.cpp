// swfomc — the command-line front-end: feed the engine models and
// weighted CNFs as files instead of recompiled C++. Every subcommand
// emits one machine-readable JSON document on stdout; diagnostics go to
// stderr with file:line:column positions.
//
//   swfomc run [options] FILE.model...       evaluate WFOMC workloads
//   swfomc cnf [options] FILE.cnf...         weighted model counts (DPLL)
//   swfomc route [options] FILE.model...     routing decision only, no solve
//   swfomc compile [options] FILE.model...   compile to d-DNNF circuits
//   swfomc eval [options] FILE.nnf...        evaluate compiled circuits
//   swfomc print FILE.{model,cnf,nnf}...     reprint in canonical form
//   swfomc serve [options]                   long-lived JSONL inference daemon
//
// `swfomc --help` lists every option and the commands it applies to; both
// are printed from kFlags, the one place a flag is declared.
//
// Exit codes: 0 success, 1 a check failed, 2 unreadable or malformed
// input, 3 a budget was exhausted under --on-budget=error, 64 usage
// error (unknown command/option, missing operand).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "api/engine.h"
#include "io/cnf_format.h"
#include "io/diagnostics.h"
#include "io/json.h"
#include "io/model_format.h"
#include "io/nnf_format.h"
#include "io/runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/budget.h"
#include "serve/server.h"

namespace {

using swfomc::api::Engine;
using swfomc::api::Method;
using swfomc::io::DecimalError;
using swfomc::io::JsonValue;
using swfomc::io::ModelSpec;
using swfomc::io::NnfDocument;
using swfomc::io::RunOptions;
using swfomc::io::WeightedCnf;

// BSD sysexits EX_USAGE: the command line itself was wrong (as opposed to
// exit 2, a file we could not read or parse).
constexpr int kExitUsage = 64;
// A resource budget fired and the caller asked --on-budget=error: the
// inputs were fine, the answer is just not exact.
constexpr int kExitBudget = 3;

// A bad command line (vs. bad input files, which stay exit 2).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct CliOptions;

// The commands, one bit each, so a flag can name the set it applies to.
enum CommandBit : unsigned {
  kRun = 1u << 0,
  kCnf = 1u << 1,
  kRoute = 1u << 2,
  kCompile = 1u << 3,
  kEval = 1u << 4,
  kPrint = 1u << 5,
  kServe = 1u << 6,
};

struct Command {
  std::string_view name;
  CommandBit bit;
  int (*run)(const CliOptions& options);
  const char* help;
};

struct CliOptions {
  const Command* command = nullptr;
  bool help = false;
  RunOptions run;
  bool check = false;
  bool compact = false;
  /// "bounds" or "error" when --on-budget was given (it needs a budget
  /// flag); an unset policy reports bounds.
  std::string on_budget;
  std::string out_file;
  std::string out_dir;
  /// eval only: the domain size for lifted circuits.
  std::optional<std::uint64_t> domain;
  std::vector<std::string> files;
  /// serve only: the daemon's knobs (limits and trace come from `run`)
  /// and the TCP port that replaces stdin/stdout.
  swfomc::serve::ServerOptions serve;
  std::optional<std::uint16_t> listen_port;
  /// Observability sinks ("" = disabled).
  std::string metrics_out;
  std::string trace_out;
};

int Fail(const std::string& message) {
  std::cerr << "swfomc: " << message << "\n";
  return 2;
}

// Strict flag-value parser: digits only, bounded — `--threads -1` or
// `--threads 4abc` must be a usage error, not ~4 billion worker threads
// (std::stoul would accept both).
std::uint64_t ParseUint64Flag(const std::string& flag,
                              const std::string& text) {
  std::uint64_t value = 0;
  switch (swfomc::io::ParseDecimal(text, &value)) {
    case DecimalError::kNone:
      return value;
    case DecimalError::kEmpty:
      throw UsageError(flag + " needs a value");
    case DecimalError::kNotDigit:
      throw UsageError("bad " + flag + " value '" + text +
                       "' (expected a non-negative integer)");
    case DecimalError::kOverflow:
      break;
  }
  throw UsageError(flag + " value '" + text + "' is out of range");
}

// A byte count with an optional k/m/g binary suffix (case-insensitive),
// e.g. `--max-memory 64m` or `--max-circuit-bytes 1g`. ParseArgs never
// passes an empty `text`.
std::uint64_t ParseMemorySize(const std::string& flag,
                              const std::string& text) {
  std::uint64_t multiplier = 1;
  std::string digits = text;
  switch (digits.back()) {
    case 'k': case 'K': multiplier = std::uint64_t{1} << 10; break;
    case 'm': case 'M': multiplier = std::uint64_t{1} << 20; break;
    case 'g': case 'G': multiplier = std::uint64_t{1} << 30; break;
    default: break;
  }
  if (multiplier != 1) digits.pop_back();
  std::uint64_t value = ParseUint64Flag(flag, digits);
  if (value > ~std::uint64_t{0} / multiplier) {
    throw UsageError(flag + " value '" + text + "' is out of range");
  }
  return value * multiplier;
}

// ParseUint64Flag with an upper bound.
std::uint64_t ParseAtMost(const std::string& flag, const std::string& text,
                          std::uint64_t max) {
  std::uint64_t value = ParseUint64Flag(flag, text);
  if (value > max) {
    throw UsageError(flag + " value '" + text +
                     "' exceeds the supported maximum (" +
                     std::to_string(max) + ")");
  }
  return value;
}

// One command's results and what they add up to, turned into the JSON
// document and the exit code by Finish.
struct Batch {
  JsonValue results = JsonValue::MakeArray();
  bool checks_passed = true;
  bool budget_exhausted = false;

  // Notes a run or cnf count that a budget stopped short of exact.
  template <typename Report>
  void NoteOutcome(const std::string& path, const Report& report) {
    if (report.outcome == swfomc::api::Outcome::kExact) return;
    budget_exhausted = true;
    std::cerr << "swfomc: budget exhausted: " << path << ": outcome "
              << swfomc::api::ToString(report.outcome) << " ("
              << swfomc::runtime::ToString(report.stop_reason) << ")\n";
  }
};

// Emits the command's one JSON document on stdout, then applies the exit
// policy: 3 for an exhausted budget under --on-budget=error, 1 for a
// failed check, else 0.
int Finish(const CliOptions& options, Batch batch) {
  JsonValue document = JsonValue::MakeObject();
  document.Add("results", std::move(batch.results));
  if (options.check) {
    document.Add("check", JsonValue::MakeString(batch.checks_passed ? "pass"
                                                                    : "fail"));
  }
  // Where this run's observability artifacts went, so a consumer of the
  // JSON knows which sidecar files belong to it.
  if (!options.metrics_out.empty() || !options.trace_out.empty()) {
    JsonValue obs = JsonValue::MakeObject();
    if (!options.metrics_out.empty()) {
      obs.Add("metrics_out", JsonValue::MakeString(options.metrics_out));
    }
    if (!options.trace_out.empty()) {
      obs.Add("trace_out", JsonValue::MakeString(options.trace_out));
    }
    document.Add("obs", std::move(obs));
  }
  std::cout << document.Dump(options.compact ? -1 : 2) << "\n";
  if (batch.budget_exhausted && options.on_budget == "error") {
    return kExitBudget;
  }
  return batch.checks_passed ? 0 : 1;
}

int RunServe(const CliOptions& options) {
  swfomc::serve::ServerOptions server_options = options.serve;
  server_options.limits = options.run.limits;
  server_options.trace = options.run.trace;
  swfomc::serve::Server server(server_options);
  if (options.listen_port.has_value()) {
    return server.ServeTcp(*options.listen_port, [](std::uint16_t port) {
      // One structured readiness event on stderr (stdout carries only
      // responses): supervisors parse the JSON for the bound port
      // instead of scraping a human-oriented sentence.
      std::cerr << "{\"event\":\"ready\",\"transport\":\"tcp\","
                   "\"addr\":\"127.0.0.1\",\"port\":"
                << port << "}\n";
    });
  }
  return server.ServeStream(std::cin, std::cout);
}

int RunModels(const CliOptions& options) {
  Batch batch;
  for (const std::string& path : options.files) {
    ModelSpec spec = swfomc::io::LoadModelFile(path);
    swfomc::io::ModelRunReport report =
        swfomc::io::RunModel(spec, options.run, path);
    batch.NoteOutcome(path, report);
    if (options.check && !report.check_passed) {
      batch.checks_passed = false;
      // Report the first failing point — for a sweep that may be a
      // mid-range size, not the last one.
      const std::uint64_t n = report.first_failed_point.value_or(spec.domain_hi);
      const swfomc::numeric::BigRational* expect = nullptr;
      for (const auto& [size, value] : spec.point_expects) {
        if (size == n) expect = &value;
      }
      if (expect == nullptr && spec.expect.has_value()) {
        expect = &*spec.expect;
      }
      std::string computed = "?";
      for (const auto& point : report.points) {
        if (point.domain_size != n) continue;
        switch (point.outcome) {
          case swfomc::api::Outcome::kExact:
            computed = point.value.ToString();
            break;
          case swfomc::api::Outcome::kBounds:
            computed = "[" + point.bounds->lower.ToString() + ", " +
                       point.bounds->upper.ToString() + "]";
            break;
          case swfomc::api::Outcome::kAborted:
            computed = "aborted";
            break;
        }
      }
      std::cerr << "swfomc: check FAILED: " << path << ": expected "
                << (expect != nullptr ? expect->ToString() : "?")
                << " at n=" << n << ", computed " << computed << " ("
                << swfomc::api::ToString(report.method_used) << ")\n";
    }
    batch.results.array.push_back(swfomc::io::ToJson(report));
  }
  return Finish(options, std::move(batch));
}

int RunCnfs(const CliOptions& options) {
  Batch batch;
  for (const std::string& path : options.files) {
    WeightedCnf instance = swfomc::io::LoadWeightedCnfFile(path);
    swfomc::io::CnfRunReport report =
        swfomc::io::RunWeightedCnf(instance, options.run, path);
    batch.NoteOutcome(path, report);
    batch.results.array.push_back(swfomc::io::ToJson(report));
  }
  return Finish(options, std::move(batch));
}

int RunRoute(const CliOptions& options) {
  Batch batch;
  for (const std::string& path : options.files) {
    ModelSpec spec = swfomc::io::LoadModelFile(path);
    Engine engine(spec.vocabulary);
    swfomc::api::RouteDecision decision =
        engine.ExplainRoute(spec.sentence);
    JsonValue entry = JsonValue::MakeObject();
    entry.Add("file", JsonValue::MakeString(path));
    entry.Add("method",
              JsonValue::MakeString(swfomc::api::ToString(decision.method)));
    entry.Add("polarity", JsonValue::MakeString(
                              decision.complemented ? "complement" : "direct"));
    entry.Add("reason", JsonValue::MakeString(decision.reason));
    batch.results.array.push_back(std::move(entry));
  }
  return Finish(options, std::move(batch));
}

// The .nnf path for one compile input: --out verbatim, or
// --out-dir/<input-basename>.nnf.
std::string OutputPathFor(const CliOptions& options,
                          const std::string& input) {
  if (!options.out_file.empty()) return options.out_file;
  std::filesystem::path name = std::filesystem::path(input).filename();
  name.replace_extension(".nnf");
  return (std::filesystem::path(options.out_dir) / name).string();
}

int RunCompile(const CliOptions& options) {
  if (!options.out_dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(options.out_dir, error);
    if (error) {
      throw std::runtime_error("cannot create --out-dir '" +
                               options.out_dir + "': " + error.message());
    }
  }
  Batch batch;
  for (const std::string& path : options.files) {
    ModelSpec spec = swfomc::io::LoadModelFile(path);
    swfomc::io::CompileOutcome outcome =
        swfomc::io::RunCompile(spec, options.run, path);
    if (outcome.report.outcome != swfomc::api::Outcome::kExact) {
      // A trace the budget stopped is discarded whole — there is no
      // "partial circuit" to write, whatever --out asked for.
      batch.budget_exhausted = true;
      std::cerr << "swfomc: budget exhausted: " << path
                << ": compilation aborted ("
                << swfomc::runtime::ToString(outcome.report.stop_reason)
                << "), partial circuit discarded\n";
    }
    if (options.check && spec.expect.has_value() &&
        !outcome.report.check_passed) {
      batch.checks_passed = false;
      std::cerr << "swfomc: check FAILED: " << path << ": expected "
                << spec.expect->ToString() << " at n=" << spec.domain_hi
                << (outcome.query.has_value()
                        ? ", compiled circuit counts " +
                              outcome.report.count.ToString()
                        : ", but compilation was aborted")
                << "\n";
    }
    if (outcome.query.has_value() &&
        (!options.out_file.empty() || !options.out_dir.empty())) {
      std::string out_path = OutputPathFor(options, path);
      std::string rendered;
      if (outcome.query->kind() ==
          swfomc::api::CompiledQuery::Kind::kLifted) {
        // Pin (domain_hi, count) as the e line when the model has a
        // domain: it both checks the pipeline and gives `swfomc eval`
        // its default domain size.
        std::optional<std::pair<std::uint64_t, swfomc::numeric::BigRational>>
            expect;
        if (spec.has_domain) {
          expect.emplace(spec.domain_hi, outcome.report.count);
        }
        rendered = swfomc::io::PrintLiftedNnf(swfomc::io::MakeLiftedNnfDocument(
            *outcome.query, std::move(expect)));
      } else {
        rendered = swfomc::io::PrintNnf(
            swfomc::io::MakeNnfDocument(*outcome.query, spec.expect));
      }
      std::ofstream out(out_path);
      if (!out) {
        throw std::runtime_error("cannot write nnf file: " + out_path);
      }
      out << rendered;
      if (!out.flush()) {
        throw std::runtime_error("error writing nnf file: " + out_path);
      }
      outcome.report.output_path = std::move(out_path);
    }
    batch.results.array.push_back(swfomc::io::ToJson(outcome.report));
  }
  return Finish(options, std::move(batch));
}

int RunEval(const CliOptions& options) {
  Batch batch;
  for (const std::string& path : options.files) {
    swfomc::io::AnyNnfDocument document = swfomc::io::LoadAnyNnfFile(path);
    swfomc::io::EvalRunReport report;
    if (const NnfDocument* grounded =
            std::get_if<NnfDocument>(&document)) {
      report = swfomc::io::RunEval(*grounded, path);
    } else {
      report = swfomc::io::RunEval(
          std::get<swfomc::io::LiftedNnfDocument>(document), options.domain,
          path);
    }
    if (options.check && report.expected.has_value() &&
        !report.check_passed) {
      batch.checks_passed = false;
      std::cerr << "swfomc: check FAILED: " << path << ": expected "
                << report.expected->ToString() << ", circuit evaluates to "
                << report.value.ToString() << "\n";
    }
    // Eval runs no counting search, so the engine registers nothing here;
    // the CLI itself records per-circuit instruments instead.
    if (options.run.metrics != nullptr) {
      options.run.metrics
          ->GetCounter("swfomc_eval_circuits_total",
                       "Circuits evaluated by swfomc eval")
          ->Add();
      options.run.metrics
          ->GetHistogram("swfomc_eval_usec",
                         "Microseconds per circuit evaluation")
          ->Record(static_cast<std::uint64_t>(report.elapsed_seconds * 1e6));
    }
    if (options.run.trace != nullptr) {
      options.run.trace->Event("eval")
          .Str("file", path)
          .Str("kind", swfomc::api::ToString(report.kind))
          .Num("n", report.domain_size);
    }
    batch.results.array.push_back(swfomc::io::ToJson(report));
  }
  return Finish(options, std::move(batch));
}

int RunPrint(const CliOptions& options) {
  for (const std::string& path : options.files) {
    if (path.ends_with(".cnf")) {
      std::cout << swfomc::io::PrintWeightedCnf(
          swfomc::io::LoadWeightedCnfFile(path));
    } else if (path.ends_with(".nnf")) {
      swfomc::io::AnyNnfDocument document = swfomc::io::LoadAnyNnfFile(path);
      if (const NnfDocument* grounded = std::get_if<NnfDocument>(&document)) {
        std::cout << swfomc::io::PrintNnf(*grounded);
      } else {
        std::cout << swfomc::io::PrintLiftedNnf(
            std::get<swfomc::io::LiftedNnfDocument>(document));
      }
    } else {
      std::cout << swfomc::io::PrintModel(swfomc::io::LoadModelFile(path));
    }
  }
  return 0;
}

constexpr Command kCommands[] = {
    {"run", kRun, RunModels,
     "evaluate .model files: parse, route, count, report JSON"},
    {"cnf", kCnf, RunCnfs,
     "weighted model count of .cnf files through the DPLL counter"},
    {"route", kRoute, RunRoute,
     "report the routing decision for .model files without solving"},
    {"compile", kCompile, RunCompile,
     "compile .model files into circuits (.nnf): liftable FO² sentences "
     "become domain-parametric lifted circuits (no `domain` directive "
     "needed); everything else traces the grounded search into a fixed-n "
     "d-DNNF"},
    {"eval", kEval, RunEval,
     "evaluate .nnf circuits (either dialect) under their embedded "
     "weights"},
    {"print", kPrint, RunPrint,
     "parse .model/.cnf/.nnf files and reprint them canonically"},
    {"serve", kServe, RunServe,
     "long-lived inference daemon: newline-delimited JSON requests on "
     "stdin (or a TCP port with --listen), one response line each; "
     "compiled circuits are kept in a bounded LRU so repeat queries skip "
     "compilation (see the README's Serving section)"},
};

constexpr unsigned kAnyCommand = (1u << std::size(kCommands)) - 1;
// The commands that run a counting search, which budgets govern.
constexpr unsigned kSearching = kRun | kCnf | kCompile;

// Writes the parsed flag value (empty for a switch) into the options;
// `flag` is the flag's name, for error messages.
using Setter = void (*)(CliOptions& options, const std::string& flag,
                        const std::string& value);

struct Flag {
  std::string_view name;
  unsigned commands;  // CommandBits: using the flag elsewhere is exit 64
  const char* value_name;  // the value in --help; nullptr for a switch
  Setter set;
  const char* help;
};

// Every flag, once. ParseArgs splits `--flag=X` and `--flag X`, rejects
// unknown flags, empty values and flags outside `commands`, then calls
// `set`; --help prints the table.
constexpr Flag kFlags[] = {
    {"--method", kRun | kCompile, "M",
     [](auto& options, auto&, auto& value) {
       auto method = swfomc::io::ParseMethodName(value);
       if (!method.has_value()) {
         throw UsageError("unknown method '" + value + "'");
       }
       options.run.method_override = *method;
     },
     "force a method: auto | lifted-fo2 | gamma-acyclic | grounded "
     "(gamma-acyclic has no circuit form and is rejected by compile)"},
    {"--check", kRun | kCompile | kEval, nullptr,
     [](auto& options, auto&, auto&) { options.check = true; },
     "exit with status 1 if any model's `expect` (or circuit's `e`) value "
     "mismatches"},
    {"--compact", kRun | kCnf | kRoute | kCompile | kEval, nullptr,
     [](auto& options, auto&, auto&) { options.compact = true; },
     "emit single-line JSON instead of pretty-printed"},
    {"--out", kCompile, "FILE",
     [](auto& options, auto&, auto& value) { options.out_file = value; },
     "write the circuit to FILE (one input file)"},
    {"--out-dir", kCompile, "DIR",
     [](auto& options, auto&, auto& value) { options.out_dir = value; },
     "write DIR/<input-basename>.nnf per input"},
    {"--domain", kEval, "N",
     [](auto& options, auto& flag, auto& value) {
       options.domain = ParseUint64Flag(flag, value);
       if (*options.domain == 0) {
         throw UsageError(flag + " must be at least 1 (a lifted circuit's "
                          "normal form assumes a non-empty domain)");
       }
     },
     "evaluate lifted circuits at domain size N >= 1 (default: the `e` "
     "line's size; rejected for grounded circuits, which fix n at compile "
     "time)"},
    {"--budget-ms", kSearching | kServe, "N",
     [](auto& options, auto& flag, auto& value) {
       options.run.limits.budget_ms = ParseUint64Flag(flag, value);
     },
     "wall-clock budget per input, in milliseconds; an exhausted grounded "
     "search reports certified anytime bounds instead of running on (the "
     "deadline restarts for each input file; serve: a per-request default "
     "that requests may override)"},
    {"--max-decisions", kSearching | kServe, "N",
     [](auto& options, auto& flag, auto& value) {
       options.run.limits.max_decisions = ParseUint64Flag(flag, value);
     },
     "cap on DPLL decisions per input (serve: a per-request default)"},
    {"--max-memory", kSearching | kServe, "N",
     [](auto& options, auto& flag, auto& value) {
       options.run.limits.max_memory_bytes = ParseMemorySize(flag, value);
     },
     "component-cache memory ceiling in bytes; accepts k/m/g binary "
     "suffixes (serve: a per-request default)"},
    {"--on-budget", kSearching, "M",
     [](auto& options, auto& flag, auto& value) {
       if (value != "bounds" && value != "error") {
         throw UsageError("bad " + flag + " value '" + value +
                          "' (expected bounds or error)");
       }
       options.on_budget = value;
     },
     "what an exhausted budget means: bounds (default: report lower/upper "
     "and exit 0) or error (exit 3); needs a budget flag"},
    {"--metrics-out", kSearching | kEval, "FILE",
     [](auto& options, auto&, auto& value) { options.metrics_out = value; },
     "write Prometheus-style text exposition of the run's "
     "counters/gauges/histograms to FILE on exit (serve exposes the same "
     "data through its `metrics` protocol command instead)"},
    {"--trace-out", kSearching | kEval | kServe, "FILE",
     [](auto& options, auto&, auto& value) { options.trace_out = value; },
     "write a structured JSONL span/event trace to FILE"},
    {"--threads", kServe, "N",
     [](auto& options, auto& flag, auto& value) {
       options.serve.num_threads =
           static_cast<unsigned>(ParseAtMost(flag, value, 4096));
     },
     "threads that evaluate a request's weight vectors over its circuit "
     "(default 1, 0 = one per hardware thread, at most 4096); counting and "
     "compiling are sequential everywhere"},
    {"--listen", kServe, "PORT",
     [](auto& options, auto& flag, auto& value) {
       options.listen_port =
           static_cast<std::uint16_t>(ParseAtMost(flag, value, 65535));
     },
     "accept TCP connections on 127.0.0.1 instead of stdin/stdout (0 = "
     "ephemeral port, reported on stderr)"},
    {"--max-circuits", kServe, "N",
     [](auto& options, auto& flag, auto& value) {
       options.serve.max_circuits = ParseUint64Flag(flag, value);
     },
     "circuit-LRU entry bound (default 64)"},
    {"--max-circuit-bytes", kServe, "N",
     [](auto& options, auto& flag, auto& value) {
       options.serve.max_circuit_bytes = ParseMemorySize(flag, value);
     },
     "circuit-LRU byte bound, k/m/g suffixes (default 256m)"},
    {"--max-request-bytes", kServe, "N",
     [](auto& options, auto& flag, auto& value) {
       options.serve.max_request_bytes = ParseMemorySize(flag, value);
     },
     "longest accepted request line, k/m/g suffixes (default 1m)"},
    {"--help", kAnyCommand, nullptr,
     [](auto& options, auto&, auto&) { options.help = true; },
     "print this text and exit (also -h)"},
};

// One --help entry: `lead` in the left column, `text` word-wrapped into
// the right one.
void PrintEntry(std::ostream& out, const std::string& lead,
                const std::string& text) {
  constexpr std::size_t kColumn = 25;
  constexpr std::size_t kWidth = 79;
  std::string line = "  " + lead;
  std::istringstream words(text);
  for (std::string word; words >> word;) {
    if (line.size() > kColumn && line.size() + 1 + word.size() > kWidth) {
      out << line << "\n";
      line.clear();
    }
    line.resize(std::max(line.size() + 1, kColumn), ' ');
    line += word;
  }
  out << line << "\n";
}

void PrintUsage(std::ostream& out) {
  out << "usage: swfomc <command> [options] <file>...\n\ncommands:\n";
  for (const Command& command : kCommands) {
    PrintEntry(out, std::string(command.name), command.help);
  }
  out << "\noptions (each names the commands it applies to):\n";
  for (const Flag& flag : kFlags) {
    std::string applies;
    for (const Command& command : kCommands) {
      if ((flag.commands & command.bit) == 0) continue;
      applies += (applies.empty() ? "" : "/") + std::string(command.name);
    }
    if (flag.commands == kAnyCommand) applies = "any command";
    std::string lead(flag.name);
    if (flag.value_name != nullptr) lead += std::string(" ") + flag.value_name;
    PrintEntry(out, lead, "[" + applies + "] " + flag.help);
  }
  out << "\nexit codes: 0 ok, 1 a check failed, 2 unreadable or malformed "
         "input,\n3 a budget was exhausted under --on-budget=error, 64 "
         "usage error\n";
}

template <typename Table>
auto Find(const Table& table, std::string_view name) {
  return std::find_if(std::begin(table), std::end(table),
                      [&](const auto& row) { return row.name == name; });
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions options;
  if (argc < 2) throw UsageError("no command given");
  const std::string name = argv[1];
  if (name == "--help" || name == "-h") {
    options.help = true;
    return options;
  }
  const Command* command = Find(kCommands, name);
  if (command == std::end(kCommands)) {
    throw UsageError("unknown command '" + name + "'");
  }
  options.command = command;
  for (int i = 2; i < argc && !options.help; ++i) {
    std::string arg = argv[i] == std::string_view("-h") ? "--help" : argv[i];
    if (!arg.starts_with("--")) {
      options.files.push_back(std::move(arg));
      continue;
    }
    const std::size_t equals = arg.find('=');
    const std::string flag_name = arg.substr(0, equals);
    const Flag* flag = Find(kFlags, flag_name);
    if (flag == std::end(kFlags)) {
      throw UsageError("unknown option '" + arg + "'");
    }
    if ((flag->commands & command->bit) == 0) {
      throw UsageError(flag_name + " does not apply to the " + name +
                       " command");
    }
    std::string value;
    if (equals != std::string::npos) {
      if (flag->value_name == nullptr) {
        throw UsageError(flag_name + " takes no value");
      }
      value = arg.substr(equals + 1);
    } else if (flag->value_name != nullptr && i + 1 < argc) {
      value = argv[++i];
    }
    if (flag->value_name != nullptr && value.empty()) {
      throw UsageError(flag_name + " needs a value");
    }
    flag->set(options, flag_name, value);
  }
  if (options.help) return options;
  // The rules that tie flags and operands together.
  if (command->bit == kServe && !options.files.empty()) {
    throw UsageError("serve takes no file operands (requests arrive on "
                     "stdin or the --listen socket)");
  }
  if (command->bit != kServe && options.files.empty()) {
    throw UsageError("no input files");
  }
  if (!options.out_file.empty() && !options.out_dir.empty()) {
    throw UsageError("--out and --out-dir are mutually exclusive");
  }
  if (!options.out_file.empty() && options.files.size() != 1) {
    throw UsageError("--out takes exactly one input file (use --out-dir)");
  }
  if (!options.out_dir.empty()) {
    // Output names are input basenames, so two inputs sharing one would
    // silently overwrite each other's circuit.
    std::map<std::string, std::string> by_output;
    for (const std::string& path : options.files) {
      std::string out_path = OutputPathFor(options, path);
      auto [it, inserted] = by_output.emplace(out_path, path);
      if (!inserted) {
        throw UsageError("--out-dir would write '" + out_path +
                         "' for both '" + it->second + "' and '" + path +
                         "' (basenames collide)");
      }
    }
  }
  if (!options.on_budget.empty() && !options.run.limits.governed()) {
    throw UsageError(
        "--on-budget needs a budget (--budget-ms, --max-decisions, or "
        "--max-memory)");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  try {
    options = ParseArgs(argc, argv);
  } catch (const UsageError& error) {
    PrintUsage(std::cerr);
    std::cerr << "swfomc: " << error.what() << "\n";
    return kExitUsage;
  }
  if (options.help) {
    PrintUsage(std::cout);
    return 0;
  }
  try {
    // The one usage rule that reads the operands (their header lines
    // only), checked before any sink opens (and truncates) its file. A
    // file without a grounded header is left to the parser's diagnostic.
    if (options.domain.has_value()) {
      for (const std::string& path : options.files) {
        if (swfomc::io::NnfHeaderToken(path) == "nnf") {
          throw UsageError("--domain does not apply to '" + path +
                           "': a grounded circuit fixes its domain size at "
                           "compile time (compile a lifted circuit to sweep "
                           "n)");
        }
      }
    }
    // Observability sinks outlive the command: the trace file opens (and
    // fails) up front, the metrics exposition is written after the
    // command finishes so it reflects the whole run.
    swfomc::obs::MetricsRegistry registry;
    std::unique_ptr<swfomc::obs::TraceLog> trace;
    if (!options.trace_out.empty()) {
      trace = swfomc::obs::TraceLog::OpenFile(options.trace_out);
    }
    if (!options.metrics_out.empty()) options.run.metrics = &registry;
    options.run.trace = trace.get();

    int code = options.command->run(options);
    if (!options.metrics_out.empty()) {
      std::ofstream out(options.metrics_out);
      if (!out) {
        return Fail("cannot write metrics file: " + options.metrics_out);
      }
      out << registry.TextExposition();
      if (!out.flush()) {
        return Fail("error writing metrics file: " + options.metrics_out);
      }
    }
    return code;
  } catch (const UsageError& error) {
    // A usage rule that had to read an operand (--domain on a grounded
    // circuit) keeps the EX_USAGE exit.
    std::cerr << "swfomc: " << error.what() << "\n";
    return kExitUsage;
  } catch (const swfomc::io::ParseError& error) {
    return Fail(error.what());
  } catch (const std::exception& error) {
    return Fail(error.what());
  }
}
