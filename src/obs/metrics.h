#ifndef SWFOMC_OBS_METRICS_H_
#define SWFOMC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

// Process-wide metrics: counters, gauges, and log-bucketed histograms
// behind a name-keyed registry. The design splits into a cold control
// plane (registration, scrape — mutex-guarded, rare) and a hot data
// plane (increments — a relaxed atomic add, never a lock). Instruments
// are owned by the registry and handed out as stable pointers; a null
// instrument pointer is the disabled state, so callers guard with a
// single predictable branch and disabled observability costs nothing
// else.
namespace swfomc::obs {

// Monotone counter: a relaxed fetch_add, so a scrape racing writers
// still reads a value that never goes backwards.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time signed value (resident bytes, inflight requests).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(std::int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Log-bucketed histogram over non-negative integer samples (latencies
// in microseconds, batch sizes). Bucket b holds samples <= 2^b, so the
// boundaries cover [1, 2^62] with relative error bounded by 2x — ample
// for latency percentiles. Record() makes three relaxed adds: bucket
// count, sum and count.
class Histogram {
 public:
  // Buckets 0..61 have upper bounds 2^0..2^61; bucket 62 is +Inf.
  static constexpr std::size_t kBuckets = 63;

  static std::size_t BucketIndex(std::uint64_t value);
  // Inclusive upper bound of a finite bucket (2^index).
  static std::uint64_t BucketBound(std::size_t index) {
    return std::uint64_t{1} << index;
  }

  void Record(std::uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  // Aggregated view of one scrape. Taken bucket-by-bucket with relaxed
  // loads, so concurrent Record()s may or may not be included — but
  // every field is monotone across snapshots.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t sum = 0;
    std::uint64_t count = 0;

    // Quantile by linear interpolation inside the containing bucket;
    // q in [0, 1]. Returns 0 for an empty histogram.
    double Quantile(double q) const;
  };
  Snapshot Take() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

// Name-keyed instrument owner. Registration is idempotent: asking for
// an existing name returns the same instrument (and throws
// std::invalid_argument if the name is already bound to a different
// instrument kind, or is not a valid metric name). Instrument pointers
// remain valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  // Prometheus-style text exposition: `# HELP` / `# TYPE` lines, then
  // samples; histograms expose cumulative `_bucket{le="..."}` plus
  // `_sum` and `_count`, and sibling gauges `<name>_p50/_p95/_p99` with
  // interpolated quantiles. Deterministically ordered by metric name.
  std::string TextExposition() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry* GetEntry(const std::string& name, Kind kind, const std::string& help);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace swfomc::obs

#endif  // SWFOMC_OBS_METRICS_H_
