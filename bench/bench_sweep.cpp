// Domain-size sweep benchmarks — the workload of the paper's experiments
// (evaluate one sentence at every n in a range) and the motivation for
// Engine::WFOMCSweep:
//
//   * sweep vs. point-by-point loop on the lifted path: the sweep builds
//     the Scott/Skolem universal form once and shares one binomial table
//     across all points, the loop redoes both per point;
//   * the grounded sweep, one DPLL count per point;
//   * the γ-acyclic sweep at rational weights, the Theorem 3.6
//     evaluator's big-number regime.

#include <benchmark/benchmark.h>

#include "api/engine.h"
#include "logic/parser.h"
#include "logic/vocabulary.h"
#include "numeric/rational.h"

namespace {

using swfomc::api::Engine;
using swfomc::api::Method;
using swfomc::numeric::BigRational;

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

// The heaviest γ-acyclic shape of the end-to-end lifted sweep: rule (b)
// conditions twice, so each point sums O(n²) residual counts whose
// weights grow as t^{n²}.
constexpr const char* kGammaSentence =
    "exists v0 exists v1 exists v2 exists v3 exists v4 "
    "(R1(v0,v1) & R2(v1,v2) & R3(v3,v0) & R4(v4))";

void BM_Sweep_Gamma_Rational(benchmark::State& state) {
  std::uint64_t n_hi = static_cast<std::uint64_t>(state.range(0));
  // p/q weights with p, q in [4, 7].
  swfomc::logic::Vocabulary vocab;
  vocab.AddRelation("R1", 2, BigRational::Fraction(4, 7),
                    BigRational::Fraction(5, 6));
  vocab.AddRelation("R2", 2, BigRational::Fraction(6, 5),
                    BigRational::Fraction(7, 4));
  vocab.AddRelation("R3", 2, BigRational::Fraction(5, 4),
                    BigRational::Fraction(4, 7));
  vocab.AddRelation("R4", 1, BigRational::Fraction(7, 6),
                    BigRational::Fraction(6, 7));
  Engine engine(vocab);
  swfomc::logic::Formula phi = engine.Parse(kGammaSentence);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.WFOMCSweep(phi, 1, n_hi, Method::kGammaAcyclic));
  }
}
BENCHMARK(BM_Sweep_Gamma_Rational)->Arg(12)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
