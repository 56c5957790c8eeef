// Observability overhead — the cost of being measurable.
//
// The contract is that disabled observability is one predictable branch
// per decision and enabled observability is a handful of relaxed
// atomic adds every 4096 decisions. The rows below put the plain
// triangle grounded search next to the same search with a live
// MetricsRegistry attached, so BENCH_wmc.json records the deltas
// directly; the disabled row must stay within 2% of the seed baseline
// (results are bit-identical either way — obs_test and serve_test check
// that, this file checks the price). The microbench rows price the
// registry primitives themselves: a counter add, a histogram
// record, and a full text-exposition scrape.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "grounding/grounded_wfomc.h"
#include "logic/parser.h"
#include "obs/metrics.h"
#include "wmc/dpll_counter.h"

namespace {

using swfomc::obs::Counter;
using swfomc::obs::Histogram;
using swfomc::obs::MetricsRegistry;
using swfomc::wmc::DpllCounter;

constexpr const char* kTriangle =
    "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))";

// Baseline: the counter with no observability attached — the hot path
// takes the not-observed branch on every decision.
void BM_Obs_Disabled_Triangle(benchmark::State& state) {
  swfomc::logic::Vocabulary vocab;
  swfomc::logic::Formula phi = swfomc::logic::Parse(kTriangle, &vocab);
  std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    DpllCounter::Options options;
    benchmark::DoNotOptimize(
        swfomc::grounding::GroundedWFOMCBounded(phi, vocab, n, options));
  }
}
BENCHMARK(BM_Obs_Disabled_Triangle)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

// Identical search with a registry attached: live decision/propagation/
// cache counters flush every 4096 decisions. The count comes back
// bit-identical; this row prices the bookkeeping.
void BM_Obs_MetricsEnabled_Triangle(benchmark::State& state) {
  swfomc::logic::Vocabulary vocab;
  swfomc::logic::Formula phi = swfomc::logic::Parse(kTriangle, &vocab);
  std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  MetricsRegistry registry;
  for (auto _ : state) {
    DpllCounter::Options options;
    options.metrics = &registry;
    benchmark::DoNotOptimize(
        swfomc::grounding::GroundedWFOMCBounded(phi, vocab, n, options));
  }
}
BENCHMARK(BM_Obs_MetricsEnabled_Triangle)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

// The primitive the hot path leans on: one relaxed atomic add.
void BM_Obs_CounterAdd(benchmark::State& state) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("swfomc_bench_total");
  for (auto _ : state) {
    counter->Add();
  }
  benchmark::DoNotOptimize(counter->Value());
}
BENCHMARK(BM_Obs_CounterAdd);

// One histogram sample: bucket index, bucket add, sum add, count add.
void BM_Obs_HistogramRecord(benchmark::State& state) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("swfomc_bench_usec");
  std::uint64_t value = 1;
  for (auto _ : state) {
    histogram->Record(value);
    value = (value * 2862933555777941757ULL + 3037000493ULL) & 0xffff;
  }
  benchmark::DoNotOptimize(histogram->Take().count);
}
BENCHMARK(BM_Obs_HistogramRecord);

// A full scrape over a registry shaped like the serve daemon's: the
// cold-plane cost a `metrics` protocol command pays.
void BM_Obs_RegistryScrape(benchmark::State& state) {
  MetricsRegistry registry;
  for (int i = 0; i < 8; ++i) {
    registry.GetCounter("swfomc_bench_counter_" + std::to_string(i))
        ->Add(static_cast<std::uint64_t>(i) * 1000);
    registry.GetGauge("swfomc_bench_gauge_" + std::to_string(i))
        ->Set(i * 37);
  }
  for (int i = 0; i < 3; ++i) {
    Histogram* histogram =
        registry.GetHistogram("swfomc_bench_hist_" + std::to_string(i));
    for (std::uint64_t v = 1; v < 4096; v *= 3) histogram->Record(v);
  }
  for (auto _ : state) {
    std::string text = registry.TextExposition();
    benchmark::DoNotOptimize(text.data());
  }
}
BENCHMARK(BM_Obs_RegistryScrape);

}  // namespace

BENCHMARK_MAIN();
