// The benchmark harness: the workload interface, the span tracer, and
// the per-run measurement record. Everything here lives in the benchmark;
// the library under test is only ever called through its public headers.
#ifndef SWBENCH_HARNESS_H_
#define SWBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aliases.h"

namespace swbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// In-memory span log for the traced run. A span records its name, start,
/// end, parent span and operation id; spans nest through Scope objects, so
/// a span's parent is whichever span was open when it began. Nothing is
/// written until the run ends.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    const char* name = "";
    std::uint32_t parent = kNoParent;
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::uint32_t index_ = kNoParent;
    std::uint32_t saved_parent_ = kNoParent;
  };

  void BeginOp(std::uint64_t op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Adds `value` to the named per-run counter (search statistics, circuit
  /// sizes, cache counters) — counts taken at the same boundaries as the
  /// spans.
  void Count(const std::string& name, double value) { counts_[name] += value; }
  /// Records one observation of a per-operation quantity; per-layer
  /// metrics report the median of these.
  void Observe(const std::string& name, double value) {
    observations_[name].push_back(value);
  }
  const std::map<std::string, double>& counts() const { return counts_; }
  const std::map<std::string, std::vector<double>>& observations() const {
    return observations_;
  }

 private:
  std::int64_t NowNs() const;

  std::vector<Span> spans_;
  std::uint32_t open_ = kNoParent;
  std::uint64_t op_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::map<std::string, double> counts_;
  std::map<std::string, std::vector<double>> observations_;
};

/// Outcome of checking the recorded answers against their references.
struct CheckResult {
  std::uint64_t attempted = 0;  // operations checked
  std::uint64_t failed = 0;     // operations with a wrong answer or error
  std::vector<std::string> messages;  // first few failures, for the log
};

/// Counts `operations` failures, keeping the first few messages.
inline void Fail(CheckResult* check, const std::string& message,
                 std::uint64_t operations = 1) {
  constexpr std::size_t kMaxMessages = 5;
  check->failed += operations;
  if (check->messages.size() < kMaxMessages) {
    check->messages.push_back(message);
  }
}

/// The answers of every operation, by distinct input: the first run's
/// answers are kept, every later run of the same input must repeat them,
/// and after timing the kept answers are compared with the references.
template <typename Answer>
class AnswerLog {
 public:
  using Answers = std::vector<Answer>;

  void Record(std::size_t key, Answers answers) {
    ++attempted_;
    ++runs_[key];
    auto [it, inserted] = first_.try_emplace(key, std::move(answers));
    if (!inserted && it->second != answers) ++changed_;
  }
  /// An operation that threw or returned no exact answer.
  void Error(const std::string& message) {
    ++attempted_;
    Fail(&errors_, message);
  }
  /// The check so far: attempts, errors and changed repeats.
  CheckResult Start() const {
    CheckResult check = errors_;
    check.attempted = attempted_;
    if (changed_ > 0) {
      check.failed += changed_;
      check.messages.push_back(std::to_string(changed_) +
                               " repeated operations changed their answer");
    }
    return check;
  }
  const std::map<std::size_t, Answers>& first() const { return first_; }
  /// A reference mismatch for `key`: every operation that returned the
  /// kept answers failed.
  void FailKey(CheckResult* check, std::size_t key,
               const std::string& message) const {
    Fail(check, message, runs_.at(key));
  }

 private:
  std::map<std::size_t, Answers> first_;
  std::map<std::size_t, std::uint64_t> runs_;
  std::uint64_t attempted_ = 0;
  std::uint64_t changed_ = 0;
  CheckResult errors_;
};

/// One benchmark workload. The harness calls Setup() several times (set-up
/// time is reported as their median), then runs operations 0, 1, 2, ...
/// of the seeded schedule, cycle after cycle, until the time is up, then
/// Verify(). Run() returns the number of answers the operation produced.
///
/// The instances and weight vectors come from fixed catalogs; the seed
/// orders the operations of a cycle and decides which weight vector or
/// request line each cycle starts from. Every run therefore does the same
/// work in a seed-dependent order, which keeps run-to-run spread down to
/// the host's own noise.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void Setup() = 0;
  /// Operations per cycle of the schedule.
  virtual std::size_t CycleLength() const = 0;
  /// Cycles after which the operations repeat exactly (every weight
  /// vector and request line used once). The timed phase runs whole
  /// rounds, so every run does the same work.
  virtual std::size_t CyclesPerRound() const = 0;
  /// What one operation did: how many answers it returned, and which
  /// distinct input it ran (equal keys are repeats of one computation).
  struct Done {
    std::uint64_t answers = 0;
    std::size_t key = 0;
  };
  /// Runs operation `index` of cycle number `cycle`. `tracer` is null in
  /// the untraced run. Never throws: an exception becomes a failed
  /// operation.
  virtual Done Run(std::size_t index, std::size_t cycle, Tracer* tracer) = 0;
  /// Compares every recorded answer with an independent reference.
  virtual CheckResult Verify() = 0;
  /// Working-set guards (cache hit ratio, thread count); an empty string
  /// means the guards hold, otherwise it names the violated guard.
  virtual std::string CheckGuards() = 0;
  /// Per-layer numbers the workload computes itself (beyond the spans).
  virtual void AddLayerMetrics(std::map<std::string, double>*) {}
};

std::unique_ptr<Workload> MakeGroundedCount(std::uint64_t seed);
std::unique_ptr<Workload> MakeLiftedSweep(std::uint64_t seed);
std::unique_ptr<Workload> MakeServeWarm(std::uint64_t seed);
std::unique_ptr<Workload> MakeServeCold(std::uint64_t seed);

/// Threads of this process, from /proc/self/status (0 when unreadable).
int ProcessThreadCount();

/// Quantile by linear interpolation (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);

}  // namespace swbench

#endif  // SWBENCH_HARNESS_H_
