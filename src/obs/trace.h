#ifndef SWFOMC_OBS_TRACE_H_
#define SWFOMC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

// Structured event tracing: one JSON object per line (JSONL), each
// carrying a monotonic microsecond timestamp relative to the log's
// creation. Two record shapes:
//
//   {"ts_us":N,"type":"event","name":"...", ...fields}
//   {"ts_us":N,"type":"span","name":"...","dur_us":N, ...fields}
//
// Spans are closed-interval records emitted once at completion (the
// timestamp is the span's start). Records tied to a query can carry a
// "query" field from NextQueryId(); the sampling knob drops whole
// queries, never partial ones, so a sampled trace still contains
// complete spans. Emission serializes on a mutex — tracing is for the
// request/compile cadence, not the per-decision hot path.
namespace swfomc::obs {

/// Appends `value` to *out as the body of a JSON string (no quotes):
/// quote, backslash and control characters are escaped, every other byte
/// is copied as is. The one JSON escaper; io::EscapeJson wraps it.
void AppendJsonEscaped(std::string* out, std::string_view value);

class TraceLog {
 public:
  // Writes to a caller-owned stream (not owned, must outlive the log).
  explicit TraceLog(std::ostream* out, std::uint64_t sample_every = 1);
  // Opens (truncates) a JSONL file; throws std::runtime_error when the
  // file cannot be created.
  static std::unique_ptr<TraceLog> OpenFile(const std::string& path,
                                            std::uint64_t sample_every = 1);

  // Monotone id source for correlating a query's records.
  std::uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // The sampling knob: true when records for this query id should be
  // emitted (every sample_every-th query; 0 behaves like 1).
  bool SampledQuery(std::uint64_t query_id) const {
    return sample_every_ <= 1 || query_id % sample_every_ == 0;
  }

  // One in-flight record. Field setters return *this for chaining; the
  // line is written when the record is destroyed (or Emit()ed). Keys
  // must be plain identifiers; string values are JSON-escaped.
  class Record {
   public:
    Record(Record&& other) noexcept;
    Record(const Record&) = delete;
    Record& operator=(const Record&) = delete;
    Record& operator=(Record&&) = delete;
    ~Record();

    Record& Str(std::string_view key, std::string_view value);
    Record& Num(std::string_view key, std::uint64_t value);
    void Emit();

   private:
    friend class TraceLog;
    Record(TraceLog* log, const char* type, std::string_view name,
           std::uint64_t ts_us);
    TraceLog* log_;
    std::string line_;
  };

  // An instantaneous event, stamped now.
  Record Event(std::string_view name);

  // RAII span: records its start on construction and emits one span
  // record with dur_us when destroyed (or Finish()ed early). A span
  // moved-from or taken on a null log emits nothing.
  class Span {
   public:
    Span() : log_(nullptr) {}
    Span(Span&& other) noexcept;
    /// Finishes the current span (if any) before taking over the other.
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { Finish(); }

    Span& Str(std::string_view key, std::string_view value);
    Span& Num(std::string_view key, std::uint64_t value);
    Span& Bool(std::string_view key, bool value);
    void Finish();

   private:
    friend class TraceLog;
    Span(TraceLog* log, std::string_view name, std::uint64_t start_us);
    TraceLog* log_;
    std::uint64_t start_us_;
    std::string line_;
  };

  Span BeginSpan(std::string_view name);

  // Microseconds since the log was created (monotonic clock).
  std::uint64_t NowUs() const;

 private:
  void WriteLine(const std::string& line);

  std::ostream* out_;
  std::ofstream owned_file_;
  std::uint64_t sample_every_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_query_id_{0};
  std::mutex mutex_;

  TraceLog(std::uint64_t sample_every);  // file-owning constructor helper
};

}  // namespace swfomc::obs

#endif  // SWFOMC_OBS_TRACE_H_
