#include "obs/metrics.h"

#include <atomic>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace swfomc::obs {

std::size_t Histogram::BucketIndex(std::uint64_t value) {
  if (value <= 1) return 0;
  // Smallest b with value <= 2^b, i.e. bit width of value - 1.
  std::size_t bits = 0;
  for (std::uint64_t v = value - 1; v != 0; v >>= 1) ++bits;
  return bits < kBuckets - 1 ? bits : kBuckets - 1;
}

Histogram::Snapshot Histogram::Take() const {
  Snapshot snapshot;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    snapshot.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.count = count_.load(std::memory_order_relaxed);
  return snapshot;
}

double Histogram::Snapshot::Quantile(double q) const {
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    double before = static_cast<double>(cumulative);
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) < rank) continue;
    // Interpolate inside (lower, upper]; the +Inf bucket has no upper
    // bound, so report its lower edge.
    double lower = b == 0 ? 0.0
                          : static_cast<double>(Histogram::BucketBound(b - 1));
    if (b == kBuckets - 1) return lower;
    double upper = static_cast<double>(Histogram::BucketBound(b));
    double fraction =
        (rank - before) / static_cast<double>(buckets[b]);
    if (fraction < 0.0) fraction = 0.0;
    if (fraction > 1.0) fraction = 1.0;
    return lower + (upper - lower) * fraction;
  }
  return 0.0;
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || c == '_' || c == ':' || (digit && i > 0))) return false;
  }
  return true;
}

void AppendHeader(std::ostringstream* out, const std::string& name,
                  const std::string& help, const char* type) {
  if (!help.empty()) *out << "# HELP " << name << ' ' << help << '\n';
  *out << "# TYPE " << name << ' ' << type << '\n';
}

// Doubles in the exposition (quantiles only) carry no exponent and a
// fixed precision so the output is locale-independent and stable.
void AppendDouble(std::ostringstream* out, double v) {
  std::uint64_t whole = static_cast<std::uint64_t>(v);
  std::uint64_t milli =
      static_cast<std::uint64_t>((v - static_cast<double>(whole)) * 1000.0 +
                                 0.5);
  if (milli >= 1000) {
    ++whole;
    milli = 0;
  }
  *out << whole << '.';
  *out << static_cast<char>('0' + milli / 100)
       << static_cast<char>('0' + milli / 10 % 10)
       << static_cast<char>('0' + milli % 10);
}

}  // namespace

MetricsRegistry::Entry* MetricsRegistry::GetEntry(const std::string& name,
                                                 Kind kind,
                                                 const std::string& help) {
  if (!ValidMetricName(name)) {
    throw std::invalid_argument("MetricsRegistry: invalid metric name '" +
                                name + "'");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.try_emplace(name);
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    entry.help = help;
    switch (kind) {
      case Kind::kCounter: entry.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: entry.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
  } else if (entry.kind != kind) {
    throw std::invalid_argument("MetricsRegistry: metric '" + name +
                                "' already registered with a different kind");
  }
  return &entry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  return GetEntry(name, Kind::kCounter, help)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return GetEntry(name, Kind::kGauge, help)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  return GetEntry(name, Kind::kHistogram, help)->histogram.get();
}

std::string MetricsRegistry::TextExposition() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        AppendHeader(&out, name, entry.help, "counter");
        out << name << ' ' << entry.counter->Value() << '\n';
        break;
      case Kind::kGauge:
        AppendHeader(&out, name, entry.help, "gauge");
        out << name << ' ' << entry.gauge->Value() << '\n';
        break;
      case Kind::kHistogram: {
        AppendHeader(&out, name, entry.help, "histogram");
        Histogram::Snapshot snapshot = entry.histogram->Take();
        // Cumulative buckets; finite buckets stop at the last nonzero
        // one so idle histograms do not bloat the exposition.
        std::size_t last_nonzero = 0;
        for (std::size_t b = 0; b + 1 < Histogram::kBuckets; ++b) {
          if (snapshot.buckets[b] != 0) last_nonzero = b;
        }
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b <= last_nonzero; ++b) {
          cumulative += snapshot.buckets[b];
          out << name << "_bucket{le=\"" << Histogram::BucketBound(b)
              << "\"} " << cumulative << '\n';
        }
        out << name << "_bucket{le=\"+Inf\"} " << snapshot.count << '\n';
        out << name << "_sum " << snapshot.sum << '\n';
        out << name << "_count " << snapshot.count << '\n';
        // Extracted quantiles ride along as gauges (`{quantile=}` labels
        // belong to the summary type, so they get their own names).
        static constexpr struct { const char* suffix; double q; } kQuantiles[] =
            {{"_p50", 0.5}, {"_p95", 0.95}, {"_p99", 0.99}};
        for (const auto& [suffix, q] : kQuantiles) {
          out << "# TYPE " << name << suffix << " gauge\n";
          out << name << suffix << ' ';
          AppendDouble(&out, snapshot.Quantile(q));
          out << '\n';
        }
        break;
      }
    }
  }
  return out.str();
}

}  // namespace swfomc::obs
