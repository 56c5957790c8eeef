// The observability subsystem's own contract: histogram bucket
// geometry, counts from many writers, scrape-while-incrementing monotonicity
// (the property the lock-free design exists for — run under TSan in
// CI), registry registration rules, the text exposition grammar, and
// the JSONL trace format.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace swfomc::obs {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  // Bucket b holds samples <= 2^b: 0 and 1 land in bucket 0, each exact
  // power of two lands on its own boundary, and value 2^b + 1 spills
  // into the next bucket.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(Histogram::BucketIndex(5), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 3u);
  EXPECT_EQ(Histogram::BucketIndex(9), 4u);
  for (std::size_t b = 0; b + 1 < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketBound(b)), b)
        << "bound of bucket " << b;
  }
  // Values past the last finite bound saturate into the +Inf bucket.
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
}

TEST(HistogramTest, SnapshotSumsAndQuantiles) {
  Histogram histogram;
  for (std::uint64_t v = 1; v <= 100; ++v) histogram.Record(v);
  Histogram::Snapshot snapshot = histogram.Take();
  EXPECT_EQ(snapshot.count, 100u);
  EXPECT_EQ(snapshot.sum, 5050u);
  // Log buckets bound the quantile with 2x relative error.
  double p50 = snapshot.Quantile(0.5);
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 100.0);
  double p99 = snapshot.Quantile(0.99);
  EXPECT_GE(p99, 64.0);
  EXPECT_LE(p99, 128.0);
  EXPECT_LE(snapshot.Quantile(0.5), snapshot.Quantile(0.99));
  EXPECT_EQ(Histogram().Take().count, 0u);
  EXPECT_EQ(Histogram().Take().Quantile(0.5), 0.0);
}

TEST(CounterTest, AggregatesAcrossThreads) {
  // Concurrent relaxed adds from many threads lose no increment.
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(CounterTest, ScrapeWhileIncrementingIsMonotone) {
  // The lock-free claim: scraping during a write storm returns values
  // that only ever grow, and the final value is exact. 4 writers + this
  // thread scraping — the TSan CI job runs this suite specifically to
  // vet these unlocked accesses.
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("swfomc_test_storm_total");
  Histogram* histogram = registry.GetHistogram("swfomc_test_storm_usec");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter->Add();
        histogram->Record(i & 1023);
      }
      running.fetch_sub(1);
    });
  }
  std::uint64_t last_counter = 0;
  std::uint64_t last_count = 0;
  while (running.load() > 0) {
    std::uint64_t now = counter->Value();
    EXPECT_GE(now, last_counter);
    last_counter = now;
    Histogram::Snapshot snapshot = histogram->Take();
    EXPECT_GE(snapshot.count, last_count);
    last_count = snapshot.count;
    // The exposition itself must also be safe to build mid-storm.
    registry.TextExposition();
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_EQ(histogram->Take().count, kThreads * kPerThread);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentAndKindChecked) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("swfomc_test_total", "help once");
  Counter* b = registry.GetCounter("swfomc_test_total", "ignored rebind");
  EXPECT_EQ(a, b);
  EXPECT_THROW(registry.GetGauge("swfomc_test_total"), std::invalid_argument);
  EXPECT_THROW(registry.GetHistogram("swfomc_test_total"),
               std::invalid_argument);
  EXPECT_THROW(registry.GetCounter("0starts_with_digit"),
               std::invalid_argument);
  EXPECT_THROW(registry.GetCounter("has space"), std::invalid_argument);
  EXPECT_THROW(registry.GetCounter(""), std::invalid_argument);
}

TEST(MetricsRegistryTest, TextExpositionGrammar) {
  MetricsRegistry registry;
  registry.GetCounter("swfomc_test_requests_total", "Requests")->Add(3);
  registry.GetGauge("swfomc_test_depth", "Depth")->Set(-2);
  Histogram* histogram =
      registry.GetHistogram("swfomc_test_usec", "Latency");
  histogram->Record(1);
  histogram->Record(3);
  histogram->Record(3);
  std::string text = registry.TextExposition();

  EXPECT_NE(text.find("# HELP swfomc_test_requests_total Requests\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE swfomc_test_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("swfomc_test_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("swfomc_test_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE swfomc_test_usec histogram\n"),
            std::string::npos);
  // Cumulative buckets: le="1" sees the 1, le="4" sees all three, and
  // the +Inf bucket equals the count.
  EXPECT_NE(text.find("swfomc_test_usec_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("swfomc_test_usec_bucket{le=\"4\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("swfomc_test_usec_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("swfomc_test_usec_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("swfomc_test_usec_count 3\n"), std::string::npos);
  // Quantiles ride as sibling gauges (not summary-style labels).
  EXPECT_NE(text.find("# TYPE swfomc_test_usec_p50 gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("swfomc_test_usec_p50 "), std::string::npos);
  EXPECT_NE(text.find("swfomc_test_usec_p99 "), std::string::npos);

  // Every non-comment line is `name[{le="..."}] value` with a finite,
  // parseable value — the contract serve_e2e.sh's scraper re-checks
  // end to end.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    EXPECT_NO_THROW(std::stod(value)) << line;
  }
}

TEST(TraceLogTest, EmitsParseableJsonl) {
  std::ostringstream out;
  TraceLog log(&out);
  log.Event("hello").Str("who", "world \"quoted\"\n").Num("n",
                                                          std::uint64_t{7});
  {
    TraceLog::Span span = log.BeginSpan("work");
    span.Bool("ok", true);
  }
  std::istringstream lines(out.str());
  std::string line;
  std::vector<io::JsonValue> records;
  while (std::getline(lines, line)) {
    records.push_back(io::ParseJson(line, "<trace>"));
  }
  ASSERT_EQ(records.size(), 2u);

  auto field = [](const io::JsonValue& object, const std::string& key)
      -> const io::JsonValue* {
    for (const auto& [name, value] : object.object) {
      if (name == key) return &value;
    }
    return nullptr;
  };
  ASSERT_NE(field(records[0], "ts_us"), nullptr);
  EXPECT_EQ(field(records[0], "type")->string, "event");
  EXPECT_EQ(field(records[0], "name")->string, "hello");
  EXPECT_EQ(field(records[0], "who")->string, "world \"quoted\"\n");
  EXPECT_EQ(field(records[0], "n")->string, "7");
  EXPECT_EQ(field(records[1], "type")->string, "span");
  EXPECT_EQ(field(records[1], "name")->string, "work");
  ASSERT_NE(field(records[1], "dur_us"), nullptr);
  EXPECT_EQ(field(records[1], "ok")->kind, io::JsonValue::Kind::kBool);
}

TEST(TraceLogTest, SamplingDropsWholeQueries) {
  TraceLog log(nullptr, /*sample_every=*/3);
  EXPECT_TRUE(log.SampledQuery(0));
  EXPECT_FALSE(log.SampledQuery(1));
  EXPECT_FALSE(log.SampledQuery(2));
  EXPECT_TRUE(log.SampledQuery(3));
  // Ids are monotone so sampling is deterministic per query.
  EXPECT_EQ(log.NextQueryId(), 0u);
  EXPECT_EQ(log.NextQueryId(), 1u);
}

TEST(TraceLogTest, NullSpanIsInert) {
  // The disabled path: spans and records on a moved-from handle write
  // nothing and must not crash.
  std::ostringstream out;
  TraceLog log(&out);
  TraceLog::Span span;  // default: no log
  span.Str("k", "v").Num("n", 1u);
  span.Finish();
  TraceLog::Span live = log.BeginSpan("a");
  TraceLog::Span stolen = std::move(live);
  live.Finish();  // moved-from: inert
  stolen.Finish();
  std::string text = out.str();
  EXPECT_EQ(text.find("\"name\":\"a\""), text.rfind("\"name\":\"a\""));
}

}  // namespace
}  // namespace swfomc::obs
