// Knowledge compilation — compile-once-evaluate-N vs. recount-N.
//
// The serving scenario the nnf subsystem exists for: the same sentence is
// queried with many weight vectors (learning loops, per-tenant weights).
// The baseline recounts the grounded lineage from scratch per vector; the
// compiled path runs the exponential search once, keeps the trace as a
// d-DNNF circuit, and answers every further vector with one linear
// circuit pass. Rows come in matched pairs
//
//   BM_Nnf_Recount/<n>/<vectors>      N grounded recounts
//   BM_Nnf_CompileEval/<n>/<vectors>  1 compile + N circuit evaluations
//
// on the triangle family (the counter's stress workload, FO3 so grounded
// is the only engine). BM_Nnf_EvaluateOnly isolates the per-vector
// marginal cost; BM_Nnf_EvaluateOnly_FourCycle measures it on the 4-cycle
// query, whose circuit is mostly Tseitin-auxiliary edges that the
// evaluation tape folds away. The headline (BENCH_wmc.json): at n=4 with 100 vectors,
// compile-once must beat recounting by well over the 5x the roadmap's
// serving story needs.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "api/engine.h"
#include "logic/parser.h"
#include "nnf/circuit.h"
#include "numeric/rational.h"

namespace {

using swfomc::api::CompiledQuery;
using swfomc::api::Engine;
using swfomc::api::Method;
using swfomc::api::RelationWeights;
using swfomc::numeric::BigRational;

constexpr const char* kTriangle =
    "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))";
constexpr const char* kFourCycle =
    "exists x1 exists x2 exists x3 exists x4 "
    "(S(x1,x2) & S(x2,x3) & S(x3,x4) & S(x4,x1))";

// Deterministic weight schedule: the k-th vector is (k+1, 1/(k+2)) — all
// distinct, all exercising non-trivial rational arithmetic.
RelationWeights WeightVector(std::int64_t k) {
  return {"S", BigRational(k + 1), BigRational::Fraction(1, k + 2)};
}

struct QueryFixture {
  swfomc::logic::Vocabulary vocabulary;
  swfomc::logic::Formula sentence;

  explicit QueryFixture(const char* text = kTriangle)
      : sentence(swfomc::logic::Parse(text, &vocabulary)) {}

  // The grounded d-DNNF at domain size n.
  CompiledQuery Compile(std::uint64_t n) const {
    Engine engine(vocabulary);
    return *engine
                .Compile(sentence,
                         {.domain_size = n, .method = Method::kGrounded})
                .compiled;
  }
};

void BM_Nnf_Recount(benchmark::State& state) {
  QueryFixture fixture;
  std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  std::int64_t vectors = state.range(1);
  for (auto _ : state) {
    for (std::int64_t k = 0; k < vectors; ++k) {
      RelationWeights weights = WeightVector(k);
      swfomc::logic::Vocabulary reweighted = fixture.vocabulary;
      reweighted.SetWeights(reweighted.Require("S"), weights.positive,
                            weights.negative);
      Engine engine(reweighted);
      benchmark::DoNotOptimize(
          engine.WFOMC(fixture.sentence, n, Method::kGrounded).value);
    }
  }
}
BENCHMARK(BM_Nnf_Recount)
    ->Args({4, 100})
    ->Args({5, 10})
    ->Unit(benchmark::kMillisecond);

void BM_Nnf_CompileEval(benchmark::State& state) {
  QueryFixture fixture;
  std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  std::int64_t vectors = state.range(1);
  swfomc::nnf::Circuit::EvalArena arena;
  for (auto _ : state) {
    CompiledQuery compiled = fixture.Compile(n);
    for (std::int64_t k = 0; k < vectors; ++k) {
      benchmark::DoNotOptimize(
          compiled.Evaluate(n, {WeightVector(k)}, &arena));
    }
  }
}
BENCHMARK(BM_Nnf_CompileEval)
    ->Args({4, 100})
    ->Args({5, 10})
    ->Unit(benchmark::kMillisecond);

// The marginal cost of one more weight vector once compiled — the number
// to quote for serving throughput (queries/second = 1 / this). Serving
// form: one EvalArena reused across calls, as a real serving loop would.
void BM_Nnf_EvaluateOnly(benchmark::State& state) {
  QueryFixture fixture;
  std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  CompiledQuery compiled = fixture.Compile(n);
  swfomc::nnf::Circuit::EvalArena arena;
  std::int64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compiled.Evaluate(n, {WeightVector(k++ % 100)}, &arena));
  }
}
BENCHMARK(BM_Nnf_EvaluateOnly)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

void BM_Nnf_EvaluateOnly_FourCycle(benchmark::State& state) {
  QueryFixture fixture(kFourCycle);
  std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  CompiledQuery compiled = fixture.Compile(n);
  swfomc::nnf::Circuit::EvalArena arena;
  std::int64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compiled.Evaluate(n, {WeightVector(k++ % 100)}, &arena));
  }
}
BENCHMARK(BM_Nnf_EvaluateOnly_FourCycle)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void PrintTable() {
  std::printf(
      "== Knowledge compilation: circuit sizes on the triangle family "
      "==\n\n");
  std::printf("%4s %10s %10s %10s %8s %12s %12s\n", "n", "vars", "nodes",
              "edges", "depth", "cache hits", "wfomc check");
  for (std::uint64_t n = 2; n <= 5; ++n) {
    CompiledQuery compiled = QueryFixture().Compile(n);
    auto stats = compiled.circuit().ComputeStats();
    bool check = compiled.Evaluate(n, {}) == compiled.compile_count();
    std::printf("%4llu %10u %10llu %10llu %8llu %12llu %12s\n",
                static_cast<unsigned long long>(n),
                compiled.circuit().variable_count(),
                static_cast<unsigned long long>(stats.nodes),
                static_cast<unsigned long long>(stats.edges),
                static_cast<unsigned long long>(stats.depth),
                static_cast<unsigned long long>(
                    compiled.compile_stats().cache_hits),
                check ? "ok" : "MISMATCH");
  }
  std::printf(
      "\nTimings below: Recount = N grounded counts, CompileEval = one\n"
      "compile + N circuit evaluations, EvaluateOnly = the per-vector\n"
      "marginal cost after compiling.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
