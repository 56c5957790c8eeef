#ifndef SWFOMC_RUNTIME_BUDGET_H_
#define SWFOMC_RUNTIME_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>

namespace swfomc::runtime {

/// Why a governed computation stopped early. kNone means it ran to
/// completion; every other value names the resource (or request) that cut
/// it short. The first reason to fire wins — a computation reports exactly
/// one reason even when several limits trip near-simultaneously.
enum class StopReason : std::uint8_t {
  kNone = 0,
  kCancelled,  // a CancelToken was triggered (or a kCancel fault fired)
  kDeadline,   // the wall-clock deadline passed
  kDecisions,  // the decision-count cap was reached
  kMemory,     // the memory ceiling was hit (or a kMemory fault fired)
};

const char* ToString(StopReason reason);

/// Cooperative cancellation flag, shared between the requesting thread
/// and any number of workers. Requesting cancellation is a relaxed store;
/// workers poll IsCancelled() at their own cadence (the DPLL counter
/// checks once per decision), so cancellation latency is bounded by the
/// poller's check interval plus its unwind cost, never by a kill.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void RequestCancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }
  bool IsCancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Resource envelope for one governed computation: a wall-clock deadline,
/// a decision-count cap, and a byte-accounted memory ceiling. All three
/// default to unlimited; set only what should bind. The usage counters are
/// atomic so one Budget can be shared across threads and by every point of
/// a sweep (the envelope covers the whole query, not each subproblem).
///
/// The budget does not enforce anything by itself: governed code charges
/// usage through ChargeDecisions/TryChargeBytes and polls CheckDeadline,
/// then winds down cooperatively when a limit reports exhausted. Decision
/// caps are exact (every decision is charged before it is made); deadline
/// checks are amortized by the caller (the counter reads the clock every
/// 64 decisions), so deadline overshoot is bounded by that interval's
/// work.
class Budget {
 public:
  static constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

  Budget() = default;
  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  /// Deadline `ms` milliseconds from now (monotonic clock).
  void SetWallClockMs(std::uint64_t ms) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(ms);
    has_deadline_ = true;
  }
  void SetMaxDecisions(std::uint64_t cap) { max_decisions_ = cap; }
  void SetMaxMemoryBytes(std::uint64_t cap) { max_memory_bytes_ = cap; }

  bool has_deadline() const { return has_deadline_; }
  std::uint64_t max_decisions() const { return max_decisions_; }
  std::uint64_t max_memory_bytes() const { return max_memory_bytes_; }

  /// Charges `n` decisions and reports kDecisions once the cap is
  /// exceeded (charge-then-check: the caller should charge each decision
  /// *before* performing it, so a cap of K permits exactly K decisions).
  StopReason ChargeDecisions(std::uint64_t n) {
    std::uint64_t used =
        decisions_used_.fetch_add(n, std::memory_order_relaxed) + n;
    if (used > max_decisions_) return StopReason::kDecisions;
    return StopReason::kNone;
  }

  /// Reads the clock; kDeadline once the deadline has passed. Amortize —
  /// this is the expensive check.
  StopReason CheckDeadline() const {
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      return StopReason::kDeadline;
    }
    return StopReason::kNone;
  }

  /// Charges `n` bytes against the memory ceiling; false (and the charge
  /// rolled back) when it would exceed the cap.
  bool TryChargeBytes(std::uint64_t n) {
    std::uint64_t used =
        bytes_used_.fetch_add(n, std::memory_order_relaxed) + n;
    if (used > max_memory_bytes_) {
      bytes_used_.fetch_sub(n, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
  void ReleaseBytes(std::uint64_t n) {
    bytes_used_.fetch_sub(n, std::memory_order_relaxed);
  }

  std::uint64_t decisions_used() const {
    return decisions_used_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_used() const {
    return bytes_used_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t max_decisions_ = kUnlimited;
  std::uint64_t max_memory_bytes_ = kUnlimited;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::atomic<std::uint64_t> decisions_used_{0};
  std::atomic<std::uint64_t> bytes_used_{0};
};

/// A resource envelope as configuration: the limits to arm a fresh Budget
/// with, each unset member staying unlimited. The CLI (io::RunOptions)
/// and the serve daemon (ServerOptions, with per-request overrides) both
/// arm their per-query budgets through Arm, so the rule lives once.
struct Limits {
  std::optional<std::uint64_t> budget_ms;
  std::optional<std::uint64_t> max_decisions;
  std::optional<std::uint64_t> max_memory_bytes;

  bool governed() const {
    return budget_ms.has_value() || max_decisions.has_value() ||
           max_memory_bytes.has_value();
  }

  /// Sets every configured limit on `budget` — the deadline clock starts
  /// now, so call this right before the governed work — and returns it,
  /// ready for QueryOptions::budget. Returns null (leaving `budget`
  /// untouched) when no limit is set: an ungoverned query.
  Budget* Arm(Budget* budget) const {
    if (!governed()) return nullptr;
    if (budget_ms.has_value()) budget->SetWallClockMs(*budget_ms);
    if (max_decisions.has_value()) budget->SetMaxDecisions(*max_decisions);
    if (max_memory_bytes.has_value()) {
      budget->SetMaxMemoryBytes(*max_memory_bytes);
    }
    return budget;
  }
};

/// Deterministic fault injection for exercising governed exit paths.
///
/// A FaultPoint names a site (a class of events inside the governed
/// computation), an action to simulate, and the 1-based ordinal of the
/// event at which to fire. The computation calls Count(site) once per
/// event; the call returns true exactly once, on the `fire_at`-th event
/// at the matching site. The ordinal counter is atomic, so a FaultPoint
/// shared across threads still fires exactly once. A DPLL search is
/// sequential, so it fires at a fully deterministic point, which is what
/// the differential bound tests rely on.
class FaultPoint {
 public:
  enum class Site : std::uint8_t {
    kDecision,     // one event per DPLL decision
    kCacheInsert,  // one event per component-cache insertion attempt
  };
  enum class Action : std::uint8_t {
    kCancel,           // behave as if a CancelToken fired
    kMemoryExhausted,  // behave as if an allocation hit the ceiling
  };

  FaultPoint(Site site, Action action, std::uint64_t fire_at)
      : site_(site), action_(action), fire_at_(fire_at) {}
  FaultPoint(const FaultPoint&) = delete;
  FaultPoint& operator=(const FaultPoint&) = delete;

  Site site() const { return site_; }
  Action action() const { return action_; }

  /// Records one event at `site`; true exactly on the fire_at-th matching
  /// event (false forever after).
  bool Count(Site site) noexcept {
    if (site != site_) return false;
    return events_.fetch_add(1, std::memory_order_relaxed) + 1 == fire_at_;
  }

  std::uint64_t events() const {
    return events_.load(std::memory_order_relaxed);
  }

  /// The StopReason the action simulates.
  StopReason reason() const {
    return action_ == Action::kCancel ? StopReason::kCancelled
                                      : StopReason::kMemory;
  }

 private:
  const Site site_;
  const Action action_;
  const std::uint64_t fire_at_;
  std::atomic<std::uint64_t> events_{0};
};

}  // namespace swfomc::runtime

#endif  // SWFOMC_RUNTIME_BUDGET_H_
