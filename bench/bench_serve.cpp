// The economics of `swfomc serve` — what the daemon's compile-once cache
// actually buys over one-shot processes.
//
// Three rows on the triangle family (FO3, grounded route — a real
// compile, not a closed form):
//
//   WarmQuery    one request against a hot circuit: the steady-state
//                serving latency, with p50/p95/p99 tail counters.
//   ColdCompile  the same request against a fresh server: compile +
//                evaluate, the first-query latency.
//   ColdProcess  the pre-daemon baseline: one whole `swfomc run`
//                process per query (needs SWFOMC_CLI, which
//                scripts/bench.sh exports; the row is skipped without
//                it).
//
// The acceptance bar for the daemon is WarmQuery >= 10x below
// ColdProcess; BENCH_wmc.json records all three so the gap is audited
// by every PR. A fourth row measures batching: eight weight vectors
// answered by one request, reported as vectors/second, evaluated in
// turn (WarmBatch) and fanned out over a 4-thread pool (WarmBatch
// Pooled, the library's one use of threads).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "serve/server.h"

namespace {

using swfomc::serve::Server;
using swfomc::serve::ServerOptions;

constexpr const char* kTriangleQuery =
    R"js({"sentence": "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))",
          "domain": 4, "weights": [{"S": ["2", "1"]}]})js";

// Eight rational reweightings of the same circuit in one request.
constexpr const char* kTriangleBatch =
    R"js({"sentence": "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))",
          "domain": 4,
          "weights": [{"S": ["1", "1"]}, {"S": ["2", "1"]},
                      {"S": ["3", "1"]}, {"S": ["1/2", "1"]},
                      {"S": ["1/3", "2"]}, {"S": ["5", "2"]},
                      {"S": ["7", "3"]}, {"S": ["2/7", "1"]}]})js";

void ReportPercentiles(benchmark::State& state,
                       std::vector<double>* seconds) {
  if (seconds->empty()) return;
  std::sort(seconds->begin(), seconds->end());
  auto at = [&](double q) {
    std::size_t index = static_cast<std::size_t>(q * (seconds->size() - 1));
    return (*seconds)[index];
  };
  state.counters["p50_us"] = at(0.50) * 1e6;
  state.counters["p95_us"] = at(0.95) * 1e6;
  state.counters["p99_us"] = at(0.99) * 1e6;
}

// Steady state: the circuit is compiled before timing starts, so every
// iteration is parse-request + cache hit + one circuit pass.
void BM_Serve_WarmQuery_Triangle(benchmark::State& state) {
  Server server;
  server.HandleLine(kTriangleQuery);  // prime the cache
  std::vector<double> seconds;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    Server::Reply reply = server.HandleLine(kTriangleQuery);
    auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start);
    benchmark::DoNotOptimize(reply.json);
    state.SetIterationTime(elapsed.count());
    seconds.push_back(elapsed.count());
  }
  ReportPercentiles(state, &seconds);
}
BENCHMARK(BM_Serve_WarmQuery_Triangle)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// First-query latency: a fresh server per iteration, so the compile is
// inside the timed region. WarmQuery / ColdCompile is the in-process
// amortization factor.
void BM_Serve_ColdCompile_Triangle(benchmark::State& state) {
  for (auto _ : state) {
    Server server;
    Server::Reply reply = server.HandleLine(kTriangleQuery);
    benchmark::DoNotOptimize(reply.json);
  }
}
BENCHMARK(BM_Serve_ColdCompile_Triangle)->Unit(benchmark::kMillisecond);

// The baseline the daemon replaces: one whole CLI process per query
// (fork + exec + parse + count + report). scripts/bench.sh exports
// SWFOMC_CLI; without it the row is skipped rather than silently
// measuring the wrong thing.
void BM_Serve_ColdProcess_Run_Triangle(benchmark::State& state) {
  const char* cli = std::getenv("SWFOMC_CLI");
  if (cli == nullptr || *cli == '\0') {
    state.SkipWithError("SWFOMC_CLI not set (see scripts/bench.sh)");
    return;
  }
  const std::string model_path = "bench_serve_triangle.model";
  {
    std::ofstream model(model_path);
    model << "sentence exists x exists y exists z"
             " (S(x,y) & S(y,z) & S(z,x))\n"
          << "domain 4\n"
          << "weight S 2 1\n";
  }
  const std::string command =
      std::string(cli) + " run --compact " + model_path + " > /dev/null 2>&1";
  for (auto _ : state) {
    int code = std::system(command.c_str());
    if (code != 0) {
      state.SkipWithError("swfomc run failed");
      break;
    }
  }
  std::remove(model_path.c_str());
}
BENCHMARK(BM_Serve_ColdProcess_Run_Triangle)->Unit(benchmark::kMillisecond);

// Batch amortization: eight reweightings of one hot circuit in a single
// request. vectors_per_second is the number a sweep client sees.
void RunWarmBatch(benchmark::State& state, unsigned num_threads) {
  ServerOptions options;
  options.num_threads = num_threads;
  Server server(options);
  server.HandleLine(kTriangleBatch);  // prime the cache
  for (auto _ : state) {
    Server::Reply reply = server.HandleLine(kTriangleBatch);
    benchmark::DoNotOptimize(reply.json);
  }
  state.counters["vectors_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 8.0,
      benchmark::Counter::kIsRate);
}

void BM_Serve_WarmBatch_Triangle(benchmark::State& state) {
  RunWarmBatch(state, 1);
}
BENCHMARK(BM_Serve_WarmBatch_Triangle)->Unit(benchmark::kMicrosecond);

// The same batch over a fixed 4-thread pool; wall-clock, since the
// evaluation runs on the workers as well as the calling thread.
void BM_Serve_WarmBatch_Triangle_Pooled(benchmark::State& state) {
  RunWarmBatch(state, 4);
}
BENCHMARK(BM_Serve_WarmBatch_Triangle_Pooled)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
