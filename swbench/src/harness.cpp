#include "harness.h"

#include <algorithm>
#include <fstream>
#include <string>

namespace swbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  Span span;
  span.name = name;
  span.parent = tracer_->open_;
  span.op = tracer_->op_;
  span.start_ns = tracer_->NowNs();
  index_ = static_cast<std::uint32_t>(tracer_->spans_.size());
  saved_parent_ = tracer_->open_;
  tracer_->spans_.push_back(span);
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  tracer_->spans_[index_].end_ns = tracer_->NowNs();
  tracer_->open_ = saved_parent_;
}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double position = q * static_cast<double>(values.size() - 1);
  auto lower = static_cast<std::size_t>(position);
  std::size_t upper = std::min(lower + 1, values.size() - 1);
  double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

}  // namespace swbench
