#include "obs/trace.h"

#include <stdexcept>
#include <utility>

namespace swfomc::obs {

void AppendJsonEscaped(std::string* out, std::string_view value) {
  for (char c : value) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          *out += "\\u00";
          *out += hex[(c >> 4) & 0xf];
          *out += hex[c & 0xf];
        } else {
          *out += c;
        }
    }
  }
}

namespace {

void AppendKey(std::string* line, std::string_view key) {
  *line += ",\"";
  AppendJsonEscaped(line, key);
  *line += "\":";
}

}  // namespace

TraceLog::TraceLog(std::ostream* out, std::uint64_t sample_every)
    : out_(out),
      sample_every_(sample_every),
      epoch_(std::chrono::steady_clock::now()) {}

TraceLog::TraceLog(std::uint64_t sample_every)
    : out_(nullptr),
      sample_every_(sample_every),
      epoch_(std::chrono::steady_clock::now()) {}

std::unique_ptr<TraceLog> TraceLog::OpenFile(const std::string& path,
                                             std::uint64_t sample_every) {
  std::unique_ptr<TraceLog> log(new TraceLog(sample_every));
  log->owned_file_.open(path, std::ios::out | std::ios::trunc);
  if (!log->owned_file_) {
    throw std::runtime_error("TraceLog: cannot open '" + path +
                             "' for writing");
  }
  log->out_ = &log->owned_file_;
  return log;
}

std::uint64_t TraceLog::NowUs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceLog::WriteLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  *out_ << line << '\n';
  out_->flush();
}

TraceLog::Record::Record(TraceLog* log, const char* type,
                         std::string_view name, std::uint64_t ts_us)
    : log_(log) {
  line_ = "{\"ts_us\":" + std::to_string(ts_us) + ",\"type\":\"" + type +
          "\",\"name\":\"";
  AppendJsonEscaped(&line_, name);
  line_ += '"';
}

TraceLog::Record::Record(Record&& other) noexcept
    : log_(std::exchange(other.log_, nullptr)),
      line_(std::move(other.line_)) {}

TraceLog::Record::~Record() { Emit(); }

TraceLog::Record& TraceLog::Record::Str(std::string_view key,
                                        std::string_view value) {
  if (log_ == nullptr) return *this;
  AppendKey(&line_, key);
  line_ += '"';
  AppendJsonEscaped(&line_, value);
  line_ += '"';
  return *this;
}

TraceLog::Record& TraceLog::Record::Num(std::string_view key,
                                        std::uint64_t value) {
  if (log_ == nullptr) return *this;
  AppendKey(&line_, key);
  line_ += std::to_string(value);
  return *this;
}

void TraceLog::Record::Emit() {
  TraceLog* log = std::exchange(log_, nullptr);
  if (log == nullptr) return;
  line_ += '}';
  log->WriteLine(line_);
}

TraceLog::Record TraceLog::Event(std::string_view name) {
  return Record(this, "event", name, NowUs());
}

TraceLog::Span::Span(TraceLog* log, std::string_view name,
                     std::uint64_t start_us)
    : log_(log), start_us_(start_us) {
  line_ = "\"name\":\"";
  AppendJsonEscaped(&line_, name);
  line_ += '"';
}

TraceLog::Span::Span(Span&& other) noexcept
    : log_(std::exchange(other.log_, nullptr)),
      start_us_(other.start_us_),
      line_(std::move(other.line_)) {}

TraceLog::Span& TraceLog::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    Finish();
    log_ = std::exchange(other.log_, nullptr);
    start_us_ = other.start_us_;
    line_ = std::move(other.line_);
  }
  return *this;
}

TraceLog::Span& TraceLog::Span::Str(std::string_view key,
                                    std::string_view value) {
  if (log_ == nullptr) return *this;
  AppendKey(&line_, key);
  line_ += '"';
  AppendJsonEscaped(&line_, value);
  line_ += '"';
  return *this;
}

TraceLog::Span& TraceLog::Span::Num(std::string_view key,
                                    std::uint64_t value) {
  if (log_ == nullptr) return *this;
  AppendKey(&line_, key);
  line_ += std::to_string(value);
  return *this;
}

TraceLog::Span& TraceLog::Span::Bool(std::string_view key, bool value) {
  if (log_ == nullptr) return *this;
  AppendKey(&line_, key);
  line_ += value ? "true" : "false";
  return *this;
}

void TraceLog::Span::Finish() {
  TraceLog* log = std::exchange(log_, nullptr);
  if (log == nullptr) return;
  std::uint64_t end_us = log->NowUs();
  std::string line =
      "{\"ts_us\":" + std::to_string(start_us_) + ",\"type\":\"span\",";
  line += line_;
  line += ",\"dur_us\":" +
          std::to_string(end_us >= start_us_ ? end_us - start_us_ : 0);
  line += '}';
  log->WriteLine(line);
}

TraceLog::Span TraceLog::BeginSpan(std::string_view name) {
  return Span(this, name, NowUs());
}

}  // namespace swfomc::obs
