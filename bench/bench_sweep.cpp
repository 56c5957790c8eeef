// Domain-size sweep benchmarks — the workload of the paper's experiments
// (evaluate one sentence at every n in a range) and the motivation for
// Engine::WFOMCSweep:
//
//   * sweep vs. point-by-point loop on the lifted path: the sweep builds
//     the Scott/Skolem universal form once and shares one binomial table
//     across all points, the loop redoes both per point;
//   * the grounded sweep, one DPLL count per point.

#include <benchmark/benchmark.h>

#include "api/engine.h"
#include "logic/parser.h"
#include "logic/vocabulary.h"

namespace {

using swfomc::api::Engine;
using swfomc::api::Method;

// Few 1-types, so the composition sum stays tractable up to n ≈ 48 (the
// Table 1 sentence's extra unary predicates cap it at n ≈ 16).
constexpr const char* kLiftedSentence = "forall x exists y S(x,y)";
constexpr const char* kGroundedSentence =
    "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))";

void BM_Sweep_Lifted_PointLoop(benchmark::State& state) {
  std::uint64_t n_hi = static_cast<std::uint64_t>(state.range(0));
  swfomc::logic::Vocabulary vocab;
  Engine engine(vocab);
  swfomc::logic::Formula phi = engine.Parse(kLiftedSentence);
  for (auto _ : state) {
    for (std::uint64_t n = 1; n <= n_hi; ++n) {
      benchmark::DoNotOptimize(engine.WFOMC(phi, n, Method::kLiftedFO2));
    }
  }
}
BENCHMARK(BM_Sweep_Lifted_PointLoop)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_Sweep_Lifted_Batched(benchmark::State& state) {
  std::uint64_t n_hi = static_cast<std::uint64_t>(state.range(0));
  swfomc::logic::Vocabulary vocab;
  Engine engine(vocab);
  swfomc::logic::Formula phi = engine.Parse(kLiftedSentence);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.WFOMCSweep(phi, 1, n_hi, Method::kLiftedFO2));
  }
}
BENCHMARK(BM_Sweep_Lifted_Batched)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_Sweep_Grounded_Sequential(benchmark::State& state) {
  std::uint64_t n_hi = static_cast<std::uint64_t>(state.range(0));
  swfomc::logic::Vocabulary vocab;
  Engine engine(vocab);
  swfomc::logic::Formula phi = engine.Parse(kGroundedSentence);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.WFOMCSweep(phi, 1, n_hi, Method::kGrounded));
  }
}
BENCHMARK(BM_Sweep_Grounded_Sequential)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
