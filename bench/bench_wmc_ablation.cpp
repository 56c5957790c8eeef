// Ablation — DESIGN.md design choice #1: component decomposition and
// component caching in the DPLL weighted model counter.
//
// The grounded WFOMC path stands or falls with the propositional counter,
// so we measure DPLL with all four on/off combinations of
//   * connected-component decomposition,
//   * component caching,
// on grounded lineages of the paper's sentences. Lineages of symmetric
// sentences factor into many independent components (that structure is
// exactly what lifted algorithms exploit analytically), so decomposition
// is expected to dominate.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "grounding/grounded_wfomc.h"
#include "logic/parser.h"
#include "numeric/rational.h"
#include "wmc/dpll_counter.h"

namespace {

using swfomc::wmc::DpllCounter;

struct Config {
  const char* name;
  DpllCounter::Options options;
};

const Config kConfigs[] = {
    {"components+cache", {.use_components = true, .use_cache = true}},
    {"components only", {.use_components = true, .use_cache = false}},
    {"cache only", {.use_components = false, .use_cache = true}},
    {"plain DPLL", {.use_components = false, .use_cache = false}},
};

struct Workload {
  const char* name;
  const char* sentence;
  std::uint64_t n;
};

const Workload kWorkloads[] = {
    {"table1 n=3", "forall x forall y (R(x) | S(x,y) | T(y))", 3},
    {"forall-exists n=3", "forall x exists y S(x,y)", 3},
    {"triangle n=3",
     "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", 3},
};

void PrintTable() {
  std::printf("== Ablation: DPLL component decomposition and caching ==\n\n");
  std::printf("%-20s %-20s %10s %10s %12s %10s\n", "workload", "config",
              "decisions", "units", "components", "cache hits");
  for (const Workload& w : kWorkloads) {
    for (const Config& c : kConfigs) {
      swfomc::logic::Vocabulary vocab;
      swfomc::logic::Formula phi = swfomc::logic::Parse(w.sentence, &vocab);
      DpllCounter::Stats stats;
      swfomc::grounding::GroundedWFOMC(phi, vocab, w.n, c.options, &stats);
      std::printf("%-20s %-20s %10llu %10llu %12llu %10llu\n", w.name,
                  c.name,
                  static_cast<unsigned long long>(stats.decisions),
                  static_cast<unsigned long long>(stats.unit_propagations),
                  static_cast<unsigned long long>(stats.component_splits),
                  static_cast<unsigned long long>(stats.cache_hits));
    }
  }
  std::printf("\nSearch-space statistics above, wall-clock timings below.\n"
              "The decisions column is the ablation's headline: component\n"
              "decomposition turns a product of k independent subproblems\n"
              "from multiplicative into additive work.\n\n");
}

void RunConfig(benchmark::State& state, const DpllCounter::Options& options,
               const char* sentence, std::uint64_t n,
               bool rational_weights = false) {
  swfomc::logic::Vocabulary vocab;
  swfomc::logic::Formula phi = swfomc::logic::Parse(sentence, &vocab);
  if (rational_weights) {
    for (swfomc::logic::RelationId id = 0; id < vocab.size(); ++id) {
      vocab.SetWeights(id, swfomc::numeric::BigRational::Fraction(4, 7),
                       swfomc::numeric::BigRational::Fraction(5, 6));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        swfomc::grounding::GroundedWFOMC(phi, vocab, n, options));
  }
}

void BM_Ablation_Full(benchmark::State& state) {
  RunConfig(state, kConfigs[0].options, kWorkloads[0].sentence,
            static_cast<std::uint64_t>(state.range(0)));
}
BENCHMARK(BM_Ablation_Full)->Arg(2)->Arg(3);

void BM_Ablation_ComponentsOnly(benchmark::State& state) {
  RunConfig(state, kConfigs[1].options, kWorkloads[0].sentence,
            static_cast<std::uint64_t>(state.range(0)));
}
BENCHMARK(BM_Ablation_ComponentsOnly)->Arg(2)->Arg(3);

void BM_Ablation_CacheOnly(benchmark::State& state) {
  RunConfig(state, kConfigs[2].options, kWorkloads[0].sentence,
            static_cast<std::uint64_t>(state.range(0)));
}
BENCHMARK(BM_Ablation_CacheOnly)->Arg(2)->Arg(3);

void BM_Ablation_PlainDpll(benchmark::State& state) {
  RunConfig(state, kConfigs[3].options, kWorkloads[0].sentence,
            static_cast<std::uint64_t>(state.range(0)));
}
BENCHMARK(BM_Ablation_PlainDpll)->Arg(2)->Arg(3);

// The counter's stress workload: grounded triangle lineages blow up
// combinatorially with n, so this is where trail-based search and the
// hashed component cache pay off. n=5 is the perf-tracking headline
// (BENCH_wmc.json) that successive PRs compare against.
void BM_Ablation_Full_Triangle(benchmark::State& state) {
  RunConfig(state, kConfigs[0].options, kWorkloads[2].sentence,
            static_cast<std::uint64_t>(state.range(0)));
}
BENCHMARK(BM_Ablation_Full_Triangle)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

// The headline instance on rational weights (w = 4/7, w̄ = 5/6), the
// regime tuple-independent probabilities p/(1 − p) produce. Every other
// row runs unit weights, so these are the rows that see the counter's
// weight arithmetic: denominators cleared once per count, one division at
// the root.
void BM_Ablation_Full_Triangle_Rational(benchmark::State& state) {
  RunConfig(state, kConfigs[0].options, kWorkloads[2].sentence,
            static_cast<std::uint64_t>(state.range(0)),
            /*rational_weights=*/true);
}
BENCHMARK(BM_Ablation_Full_Triangle_Rational)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

void BM_Ablation_Full_Table1Large(benchmark::State& state) {
  RunConfig(state, kConfigs[0].options, kWorkloads[0].sentence,
            static_cast<std::uint64_t>(state.range(0)));
}
BENCHMARK(BM_Ablation_Full_Table1Large)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
