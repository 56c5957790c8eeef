// swfomc — the command-line front-end: feed the engine models and
// weighted CNFs as files instead of recompiled C++. Every subcommand
// emits one machine-readable JSON document on stdout; diagnostics go to
// stderr with file:line:column positions.
//
//   swfomc run [options] FILE.model...       evaluate WFOMC workloads
//   swfomc cnf [options] FILE.cnf...         weighted model counts (DPLL)
//   swfomc route FILE.model...               routing decision only, no solve
//   swfomc compile [options] FILE.model...   compile to d-DNNF circuits
//   swfomc eval [options] FILE.nnf...        evaluate compiled circuits
//   swfomc print FILE.{model,cnf,nnf}...     reprint in canonical form
//   swfomc serve [options]                   long-lived JSONL inference daemon
//
// Options:
//   --method M     force auto | lifted-fo2 | gamma-acyclic | grounded
//   --check        exit 1 when an `expect`/`e` value doesn't match
//   --compact      single-line JSON output
//   --out FILE     compile: write the circuit to FILE (single input)
//   --out-dir DIR  compile: write one INPUT-basename.nnf per input
//   --domain N     eval: domain size for lifted circuits
//   --budget-ms N      wall-clock budget per input (run/cnf/compile)
//   --max-decisions N  decision budget per input
//   --max-memory N     memory ceiling, k/m/g suffixes (component cache)
//   --on-budget M      bounds (report anytime bounds; default) | error
//   --threads N        serve: batch-evaluation threads (0 = hardware)
//
// Exit codes: 0 success, 1 a check failed, 2 unreadable or malformed
// input, 3 a budget was exhausted under --on-budget=error, 64 usage
// error (unknown command/option, missing operand).

#include <filesystem>
#include <fstream>
#include <map>
#include <iostream>
#include <optional>
#include <string>
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

constexpr const char* kUsage =
    R"(usage: swfomc <command> [options] <file>...

commands:
  run      evaluate .model files: parse, route, count, report JSON
  cnf      weighted model count of .cnf files through the DPLL counter
  route    report the routing decision for .model files without solving
  compile  compile .model files into circuits (.nnf): liftable FO²
           sentences become domain-parametric lifted circuits (no
           `domain` directive needed); everything else traces the
           grounded search into a fixed-n d-DNNF
  eval     evaluate .nnf circuits (either dialect) under their embedded
           weights; --domain N picks the domain size for lifted circuits
           (default: the `e` line's size)
  print    parse .model/.cnf/.nnf files and reprint them canonically
  serve    long-lived inference daemon: newline-delimited JSON requests
           on stdin (or a TCP port with --listen), one response line
           each; compiled circuits are kept in a bounded LRU so repeat
           queries skip compilation (see the README's Serving section)

options:
  --method M     force a method: auto | lifted-fo2 | gamma-acyclic |
                 grounded (run and compile; gamma-acyclic has no
                 circuit form and is rejected by compile)
  --check        exit with status 1 if any model's `expect` (or circuit's
                 `e`) value mismatches
  --compact      emit single-line JSON instead of pretty-printed
  --out FILE     compile only: write the circuit to FILE (one input file)
  --out-dir DIR  compile only: write DIR/<input-basename>.nnf per input
  --domain N     eval only: evaluate lifted circuits at domain size N
                 (rejected for grounded circuits — they fix n at
                 compile time)
  --budget-ms N      wall-clock budget per input, in milliseconds; an
                     exhausted grounded search reports certified anytime
                     bounds instead of running on (run/cnf/compile; the
                     deadline restarts for each input file)
  --max-decisions N  cap on DPLL decisions per input (run/cnf/compile)
  --max-memory N     component-cache memory ceiling in bytes; accepts
                     k/m/g binary suffixes (run/cnf/compile)
  --on-budget M      what an exhausted budget means: bounds (default —
                     report lower/upper and exit 0) or error (exit 3)
  --metrics-out FILE write Prometheus-style text exposition of the run's
                     counters/gauges/histograms to FILE on exit
                     (run/cnf/compile/eval; serve exposes the same data
                     through its `metrics` protocol command instead)
  --trace-out FILE   write a structured JSONL span/event trace to FILE
                     (run/cnf/compile/eval/serve)
  --threads N             serve only: threads that evaluate a request's
                          weight vectors over its circuit (default 1,
                          0 = one per hardware thread); counting and
                          compiling are sequential everywhere
  --listen PORT           serve only: accept TCP connections on 127.0.0.1
                          instead of stdin/stdout (0 = ephemeral port,
                          reported on stderr)
  --max-circuits N        serve only: circuit-LRU entry bound (default 64)
  --max-circuit-bytes N   serve only: circuit-LRU byte bound, k/m/g
                          suffixes (default 256m)
  --max-request-bytes N   serve only: longest accepted request line
                          (default 1m)
  (serve treats --budget-ms/--max-decisions/--max-memory as per-request
  defaults that requests may override)
  --help         this text

exit codes: 0 ok, 1 a check failed, 2 unreadable or malformed input,
3 a budget was exhausted under --on-budget=error, 64 usage error
)";

// A bad command line (vs. bad input files, which stay exit 2).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class OnBudget { kBounds, kError };

struct CliOptions {
  std::string command;
  RunOptions run;
  bool check = false;
  bool compact = false;
  /// Explicitly-set --on-budget (usage error without a budget flag);
  /// effective policy defaults to kBounds.
  std::optional<OnBudget> on_budget;
  std::string out_file;
  std::string out_dir;
  /// eval only: the domain size for lifted circuits.
  std::optional<std::uint64_t> domain;
  std::vector<std::string> files;
  /// serve-only knobs.
  std::optional<unsigned> threads;
  std::optional<std::uint16_t> listen_port;
  std::optional<std::uint64_t> max_circuits;
  std::optional<std::uint64_t> max_circuit_bytes;
  std::optional<std::uint64_t> max_request_bytes;
  /// Observability sinks ("" = disabled).
  std::string metrics_out;
  std::string trace_out;

  bool serve_flags_used() const {
    return threads.has_value() || listen_port.has_value() ||
           max_circuits.has_value() ||
           max_circuit_bytes.has_value() || max_request_bytes.has_value();
  }

  OnBudget budget_policy() const {
    return on_budget.value_or(OnBudget::kBounds);
  }
};

int Fail(const std::string& message) {
  std::cerr << "swfomc: " << message << "\n";
  return 2;
}

// Strict flag-value parser: digits only, bounded — `--threads -1` or
// `--threads 4abc` must be a usage error, not ~4 billion worker threads
// (std::stoul would accept both).
unsigned ParseThreadCount(const std::string& text) {
  if (text.empty()) throw UsageError("--threads needs a value");
  unsigned value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      throw UsageError("bad --threads value '" + text +
                       "' (expected a non-negative integer)");
    }
    value = value * 10 + static_cast<unsigned>(c - '0');
    if (value > 4096) {
      throw UsageError("--threads value '" + text +
                       "' exceeds the supported maximum (4096)");
    }
  }
  return value;  // 0 = one per hardware thread
}

// Same strictness for the 64-bit budget flags.
std::uint64_t ParseUint64Flag(const std::string& flag,
                              const std::string& text) {
  if (text.empty()) throw UsageError(flag + " needs a value");
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      throw UsageError("bad " + flag + " value '" + text +
                       "' (expected a non-negative integer)");
    }
    std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) {
      throw UsageError(flag + " value '" + text + "' is out of range");
    }
    value = value * 10 + digit;
  }
  return value;
}

// A byte count with an optional k/m/g binary suffix (case-insensitive),
// e.g. `--max-memory 64m` or `--max-circuit-bytes 1g`.
std::uint64_t ParseMemorySize(const std::string& flag,
                              const std::string& text) {
  if (text.empty()) throw UsageError(flag + " needs a value");
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

std::uint16_t ParsePort(const std::string& text) {
  std::uint64_t port = ParseUint64Flag("--listen", text);
  if (port > 65535) {
    throw UsageError("--listen port '" + text + "' is out of range (0 = "
                     "ephemeral, else 1..65535)");
  }
  return static_cast<std::uint16_t>(port);
}

std::optional<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  if (argc < 2) throw UsageError("no command given");
  options.command = argv[1];
  if (options.command == "--help" || options.command == "-h") {
    return std::nullopt;
  }
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return std::nullopt;
    if (arg == "--check") {
      options.check = true;
    } else if (arg == "--compact") {
      options.compact = true;
    } else if (arg == "--threads") {
      if (++i >= argc) throw UsageError("--threads needs a value");
      options.threads = ParseThreadCount(argv[i]);
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads = ParseThreadCount(arg.substr(10));
    } else if (arg == "--out") {
      if (++i >= argc) throw UsageError("--out needs a value");
      options.out_file = argv[i];
    } else if (arg.rfind("--out=", 0) == 0) {
      options.out_file = arg.substr(6);
    } else if (arg == "--out-dir") {
      if (++i >= argc) throw UsageError("--out-dir needs a value");
      options.out_dir = argv[i];
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      options.out_dir = arg.substr(10);
    } else if (arg == "--domain") {
      if (++i >= argc) throw UsageError("--domain needs a value");
      options.domain = ParseUint64Flag("--domain", argv[i]);
    } else if (arg.rfind("--domain=", 0) == 0) {
      options.domain = ParseUint64Flag("--domain", arg.substr(9));
    } else if (arg == "--budget-ms") {
      if (++i >= argc) throw UsageError("--budget-ms needs a value");
      options.run.limits.budget_ms =
          ParseUint64Flag("--budget-ms", argv[i]);
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      options.run.limits.budget_ms =
          ParseUint64Flag("--budget-ms", arg.substr(12));
    } else if (arg == "--max-decisions") {
      if (++i >= argc) throw UsageError("--max-decisions needs a value");
      options.run.limits.max_decisions =
          ParseUint64Flag("--max-decisions", argv[i]);
    } else if (arg.rfind("--max-decisions=", 0) == 0) {
      options.run.limits.max_decisions =
          ParseUint64Flag("--max-decisions", arg.substr(16));
    } else if (arg == "--max-memory") {
      if (++i >= argc) throw UsageError("--max-memory needs a value");
      options.run.limits.max_memory_bytes =
          ParseMemorySize("--max-memory", argv[i]);
    } else if (arg.rfind("--max-memory=", 0) == 0) {
      options.run.limits.max_memory_bytes =
          ParseMemorySize("--max-memory", arg.substr(13));
    } else if (arg == "--listen") {
      if (++i >= argc) throw UsageError("--listen needs a value");
      options.listen_port = ParsePort(argv[i]);
    } else if (arg.rfind("--listen=", 0) == 0) {
      options.listen_port = ParsePort(arg.substr(9));
    } else if (arg == "--max-circuits") {
      if (++i >= argc) throw UsageError("--max-circuits needs a value");
      options.max_circuits = ParseUint64Flag("--max-circuits", argv[i]);
    } else if (arg.rfind("--max-circuits=", 0) == 0) {
      options.max_circuits =
          ParseUint64Flag("--max-circuits", arg.substr(15));
    } else if (arg == "--max-circuit-bytes") {
      if (++i >= argc) throw UsageError("--max-circuit-bytes needs a value");
      options.max_circuit_bytes =
          ParseMemorySize("--max-circuit-bytes", argv[i]);
    } else if (arg.rfind("--max-circuit-bytes=", 0) == 0) {
      options.max_circuit_bytes =
          ParseMemorySize("--max-circuit-bytes", arg.substr(20));
    } else if (arg == "--max-request-bytes") {
      if (++i >= argc) throw UsageError("--max-request-bytes needs a value");
      options.max_request_bytes =
          ParseMemorySize("--max-request-bytes", argv[i]);
    } else if (arg.rfind("--max-request-bytes=", 0) == 0) {
      options.max_request_bytes =
          ParseMemorySize("--max-request-bytes", arg.substr(20));
    } else if (arg == "--metrics-out") {
      if (++i >= argc) throw UsageError("--metrics-out needs a value");
      options.metrics_out = argv[i];
      if (options.metrics_out.empty()) {
        throw UsageError("--metrics-out needs a value");
      }
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      options.metrics_out = arg.substr(14);
      if (options.metrics_out.empty()) {
        throw UsageError("--metrics-out needs a value");
      }
    } else if (arg == "--trace-out") {
      if (++i >= argc) throw UsageError("--trace-out needs a value");
      options.trace_out = argv[i];
      if (options.trace_out.empty()) {
        throw UsageError("--trace-out needs a value");
      }
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      options.trace_out = arg.substr(12);
      if (options.trace_out.empty()) {
        throw UsageError("--trace-out needs a value");
      }
    } else if (arg == "--on-budget" || arg.rfind("--on-budget=", 0) == 0) {
      std::string name;
      if (arg == "--on-budget") {
        if (++i >= argc) throw UsageError("--on-budget needs a value");
        name = argv[i];
      } else {
        name = arg.substr(12);
      }
      if (name == "bounds") {
        options.on_budget = OnBudget::kBounds;
      } else if (name == "error") {
        options.on_budget = OnBudget::kError;
      } else {
        throw UsageError("bad --on-budget value '" + name +
                         "' (expected bounds or error)");
      }
    } else if (arg == "--method" || arg.rfind("--method=", 0) == 0) {
      std::string name;
      if (arg == "--method") {
        if (++i >= argc) throw UsageError("--method needs a value");
        name = argv[i];
      } else {
        name = arg.substr(9);
      }
      auto method = swfomc::io::ParseMethodName(name);
      if (!method.has_value()) {
        throw UsageError("unknown method '" + name + "'");
      }
      options.run.method_override = *method;
    } else if (arg.rfind("--", 0) == 0) {
      throw UsageError("unknown option '" + arg + "'");
    } else {
      options.files.push_back(std::move(arg));
    }
  }
  if (options.command == "serve") {
    // The daemon reads requests from its transport, not from operands,
    // and its knobs that would silently do nothing are rejected outright
    // (same philosophy as compile/eval below).
    if (!options.files.empty()) {
      throw UsageError("serve takes no file operands (requests arrive on "
                       "stdin or the --listen socket)");
    }
    if (options.check) {
      throw UsageError("--check does not apply to the serve command "
                       "(expectations live in requests, not files)");
    }
    if (options.compact) {
      throw UsageError("--compact does not apply to the serve command "
                       "(responses are always single-line)");
    }
    if (options.run.method_override.has_value()) {
      throw UsageError("--method does not apply to the serve command "
                       "(requests carry their own method)");
    }
    if (options.on_budget.has_value()) {
      throw UsageError("--on-budget does not apply to the serve command "
                       "(budget outcomes are reported per request)");
    }
    if (!options.out_file.empty() || !options.out_dir.empty()) {
      throw UsageError("--out/--out-dir do not apply to the serve command");
    }
    if (options.domain.has_value()) {
      throw UsageError("--domain does not apply to the serve command "
                       "(requests carry their own domain size)");
    }
    if (!options.metrics_out.empty()) {
      throw UsageError("--metrics-out does not apply to the serve command "
                       "(scrape the 'metrics' protocol command instead)");
    }
    return options;
  }
  // Counting and compiling are sequential and eval is a linear circuit
  // pass; accepting a thread count there would silently do nothing.
  if (options.serve_flags_used()) {
    throw UsageError(
        "--threads/--listen/--max-circuits/--max-circuit-bytes/"
        "--max-request-bytes only apply to the serve command");
  }
  if (options.files.empty()) {
    throw UsageError("no input files");
  }
  if (!options.out_file.empty() && options.command != "compile") {
    throw UsageError("--out only applies to the compile command");
  }
  if (!options.out_dir.empty() && options.command != "compile") {
    throw UsageError("--out-dir only applies to the compile command");
  }
  if (!options.out_file.empty() && !options.out_dir.empty()) {
    throw UsageError("--out and --out-dir are mutually exclusive");
  }
  if (!options.out_file.empty() && options.files.size() != 1) {
    throw UsageError("--out takes exactly one input file (use --out-dir)");
  }
  // Eval has nothing to route, so a forced method is meaningless.
  if (options.command == "eval" && options.run.method_override.has_value()) {
    throw UsageError("--method does not apply to the eval command "
                     "(the circuit kind was fixed at compile time)");
  }
  if (options.domain.has_value() && options.command != "eval") {
    throw UsageError("--domain only applies to the eval command (run and "
                     "compile take the model's 'domain' directive)");
  }
  // Observability follows the counting/evaluation work; route and print
  // do none, so the sinks would stay empty — reject rather than write a
  // vacuous file.
  if ((options.command == "route" || options.command == "print")) {
    if (!options.metrics_out.empty()) {
      throw UsageError("--metrics-out does not apply to the " +
                       options.command + " command (it runs no search)");
    }
    if (!options.trace_out.empty()) {
      throw UsageError("--trace-out does not apply to the " +
                       options.command + " command (it runs no search)");
    }
  }
  // Budgets govern the counting search; route/eval/print never run one.
  if (options.run.limits.governed() &&
      (options.command == "route" || options.command == "eval" ||
       options.command == "print")) {
    throw UsageError("budget options do not apply to the " + options.command +
                     " command (it runs no counting search)");
  }
  if (options.on_budget.has_value() && !options.run.limits.governed()) {
    throw UsageError(
        "--on-budget needs a budget (--budget-ms, --max-decisions, or "
        "--max-memory)");
  }
  return options;
}

void Emit(const JsonValue& document, bool compact) {
  std::cout << document.Dump(compact ? -1 : 2) << "\n";
}

// The report's "obs" block: where this run's observability artifacts
// went, so a consumer of the JSON knows which sidecar files belong to it.
void AddObsBlock(JsonValue* document, const CliOptions& options) {
  if (options.metrics_out.empty() && options.trace_out.empty()) return;
  JsonValue obs = JsonValue::MakeObject();
  if (!options.metrics_out.empty()) {
    obs.Add("metrics_out", JsonValue::MakeString(options.metrics_out));
  }
  if (!options.trace_out.empty()) {
    obs.Add("trace_out", JsonValue::MakeString(options.trace_out));
  }
  document->Add("obs", std::move(obs));
}

int RunServe(const CliOptions& options) {
  swfomc::serve::ServerOptions server_options;
  server_options.num_threads = options.threads.value_or(1);
  if (options.max_circuits.has_value()) {
    server_options.max_circuits =
        static_cast<std::size_t>(*options.max_circuits);
  }
  if (options.max_circuit_bytes.has_value()) {
    server_options.max_circuit_bytes =
        static_cast<std::size_t>(*options.max_circuit_bytes);
  }
  if (options.max_request_bytes.has_value()) {
    server_options.max_request_bytes =
        static_cast<std::size_t>(*options.max_request_bytes);
  }
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
  JsonValue results = JsonValue::MakeArray();
  bool checks_passed = true;
  bool budget_exhausted = false;
  for (const std::string& path : options.files) {
    ModelSpec spec = swfomc::io::LoadModelFile(path);
    swfomc::io::ModelRunReport report =
        swfomc::io::RunModel(spec, options.run, path);
    if (report.outcome != swfomc::api::Outcome::kExact) {
      budget_exhausted = true;
      std::cerr << "swfomc: budget exhausted: " << path << ": outcome "
                << swfomc::api::ToString(report.outcome) << " ("
                << swfomc::runtime::ToString(report.stop_reason) << ")\n";
    }
    if (options.check && !report.check_passed) {
      checks_passed = false;
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
    results.array.push_back(swfomc::io::ToJson(report));
  }
  JsonValue document = JsonValue::MakeObject();
  document.Add("results", std::move(results));
  if (options.check) {
    document.Add("check", JsonValue::MakeString(checks_passed ? "pass"
                                                              : "fail"));
  }
  AddObsBlock(&document, options);
  Emit(document, options.compact);
  if (budget_exhausted && options.budget_policy() == OnBudget::kError) {
    return kExitBudget;
  }
  return checks_passed ? 0 : 1;
}

int RunCnfs(const CliOptions& options) {
  JsonValue results = JsonValue::MakeArray();
  bool budget_exhausted = false;
  for (const std::string& path : options.files) {
    WeightedCnf instance = swfomc::io::LoadWeightedCnfFile(path);
    swfomc::io::CnfRunReport report =
        swfomc::io::RunWeightedCnf(instance, options.run, path);
    if (report.outcome != swfomc::api::Outcome::kExact) {
      budget_exhausted = true;
      std::cerr << "swfomc: budget exhausted: " << path << ": outcome "
                << swfomc::api::ToString(report.outcome) << " ("
                << swfomc::runtime::ToString(report.stop_reason) << ")\n";
    }
    results.array.push_back(swfomc::io::ToJson(report));
  }
  JsonValue document = JsonValue::MakeObject();
  document.Add("results", std::move(results));
  AddObsBlock(&document, options);
  Emit(document, options.compact);
  if (budget_exhausted && options.budget_policy() == OnBudget::kError) {
    return kExitBudget;
  }
  return 0;
}

int RunRoute(const CliOptions& options) {
  JsonValue results = JsonValue::MakeArray();
  for (const std::string& path : options.files) {
    ModelSpec spec = swfomc::io::LoadModelFile(path);
    Engine engine(spec.vocabulary);
    swfomc::api::RouteDecision decision =
        engine.ExplainRoute(spec.sentence);
    JsonValue entry = JsonValue::MakeObject();
    entry.Add("file", JsonValue::MakeString(path));
    entry.Add("method",
              JsonValue::MakeString(swfomc::api::ToString(decision.method)));
    entry.Add("reason", JsonValue::MakeString(decision.reason));
    results.array.push_back(std::move(entry));
  }
  JsonValue document = JsonValue::MakeObject();
  document.Add("results", std::move(results));
  Emit(document, options.compact);
  return 0;
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
    // Output names are input basenames, so two inputs sharing one would
    // silently overwrite each other's circuit — refuse up front.
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
    std::error_code error;
    std::filesystem::create_directories(options.out_dir, error);
    if (error) {
      throw std::runtime_error("cannot create --out-dir '" +
                               options.out_dir + "': " + error.message());
    }
  }
  JsonValue results = JsonValue::MakeArray();
  bool checks_passed = true;
  bool budget_exhausted = false;
  for (const std::string& path : options.files) {
    ModelSpec spec = swfomc::io::LoadModelFile(path);
    swfomc::io::CompileOutcome outcome =
        swfomc::io::RunCompile(spec, options.run, path);
    if (outcome.report.outcome != swfomc::api::Outcome::kExact) {
      // A trace the budget stopped is discarded whole — there is no
      // "partial circuit" to write, whatever --out asked for.
      budget_exhausted = true;
      std::cerr << "swfomc: budget exhausted: " << path
                << ": compilation aborted ("
                << swfomc::runtime::ToString(outcome.report.stop_reason)
                << "), partial circuit discarded\n";
    }
    if (options.check && spec.expect.has_value() &&
        !outcome.report.check_passed) {
      checks_passed = false;
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
    results.array.push_back(swfomc::io::ToJson(outcome.report));
  }
  JsonValue document = JsonValue::MakeObject();
  document.Add("results", std::move(results));
  if (options.check) {
    document.Add("check", JsonValue::MakeString(checks_passed ? "pass"
                                                              : "fail"));
  }
  AddObsBlock(&document, options);
  Emit(document, options.compact);
  if (budget_exhausted && options.budget_policy() == OnBudget::kError) {
    return kExitBudget;
  }
  return checks_passed ? 0 : 1;
}

int RunEval(const CliOptions& options) {
  JsonValue results = JsonValue::MakeArray();
  bool checks_passed = true;
  for (const std::string& path : options.files) {
    swfomc::io::AnyNnfDocument document = swfomc::io::LoadAnyNnfFile(path);
    swfomc::io::EvalRunReport report;
    if (const NnfDocument* grounded =
            std::get_if<NnfDocument>(&document)) {
      if (options.domain.has_value()) {
        throw UsageError("--domain does not apply to '" + path +
                         "': a grounded circuit fixes its domain size at "
                         "compile time (compile a lifted circuit to sweep n)");
      }
      report = swfomc::io::RunEval(*grounded, path);
    } else {
      report = swfomc::io::RunEval(
          std::get<swfomc::io::LiftedNnfDocument>(document), options.domain,
          path);
    }
    if (options.check && report.expected.has_value() &&
        !report.check_passed) {
      checks_passed = false;
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
    results.array.push_back(swfomc::io::ToJson(report));
  }
  JsonValue document = JsonValue::MakeObject();
  document.Add("results", std::move(results));
  if (options.check) {
    document.Add("check", JsonValue::MakeString(checks_passed ? "pass"
                                                              : "fail"));
  }
  AddObsBlock(&document, options);
  Emit(document, options.compact);
  return checks_passed ? 0 : 1;
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

}  // namespace

int main(int argc, char** argv) {
  std::optional<CliOptions> options;
  try {
    options = ParseArgs(argc, argv);
  } catch (const UsageError& error) {
    std::cerr << kUsage;
    std::cerr << "swfomc: " << error.what() << "\n";
    return kExitUsage;
  }
  if (!options.has_value()) {  // --help
    std::cout << kUsage;
    return 0;
  }
  try {
    // Observability sinks outlive the command: the trace file opens (and
    // fails) up front, the metrics exposition is written after the
    // command finishes so it reflects the whole run.
    swfomc::obs::MetricsRegistry registry;
    std::unique_ptr<swfomc::obs::TraceLog> trace;
    if (!options->trace_out.empty()) {
      trace = swfomc::obs::TraceLog::OpenFile(options->trace_out);
    }
    if (!options->metrics_out.empty()) options->run.metrics = &registry;
    options->run.trace = trace.get();

    auto dispatch = [&]() -> int {
      if (options->command == "run") return RunModels(*options);
      if (options->command == "cnf") return RunCnfs(*options);
      if (options->command == "route") return RunRoute(*options);
      if (options->command == "compile") return RunCompile(*options);
      if (options->command == "eval") return RunEval(*options);
      if (options->command == "print") return RunPrint(*options);
      if (options->command == "serve") return RunServe(*options);
      std::cerr << kUsage;
      std::cerr << "swfomc: unknown command '" << options->command << "'\n";
      return kExitUsage;
    };
    int code = dispatch();
    if (!options->metrics_out.empty()) {
      std::ofstream out(options->metrics_out);
      if (!out) {
        return Fail("cannot write metrics file: " + options->metrics_out);
      }
      out << registry.TextExposition();
      if (!out.flush()) {
        return Fail("error writing metrics file: " + options->metrics_out);
      }
    }
    return code;
  } catch (const UsageError& error) {
    // Command-line-shaped problems discovered mid-command (e.g. colliding
    // --out-dir basenames) keep the EX_USAGE exit.
    std::cerr << "swfomc: " << error.what() << "\n";
    return kExitUsage;
  } catch (const swfomc::io::ParseError& error) {
    return Fail(error.what());
  } catch (const std::exception& error) {
    return Fail(error.what());
  }
}
