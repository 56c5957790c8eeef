#include "serve/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "io/json.h"

namespace swfomc {
namespace {

using io::JsonValue;
using io::ParseJson;
using serve::Server;
using serve::ServerOptions;
using serve::ServerStats;

JsonValue Query(Server* server, const std::string& line) {
  Server::Reply reply = server->HandleLine(line);
  EXPECT_FALSE(reply.quit) << line;
  return std::move(reply.json);
}

TEST(Serve, AnswersAQueryExactly) {
  Server server;
  JsonValue response = Query(
      &server,
      R"js({"id": 7, "sentence": "forall x forall y S(x,y)", "domain": 3,
            "weights": [{"S": ["2", "1"]}]})js");
  EXPECT_EQ(response.At("status").string, "ok");
  EXPECT_EQ(response.At("id").string, "7");
  EXPECT_EQ(response.At("n").string, "3");
  ASSERT_EQ(response.At("results").array.size(), 1u);
  EXPECT_EQ(response.At("results").array[0].At("wfomc").string, "512");
  EXPECT_EQ(response.At("cached").boolean, false);
}

TEST(Serve, BatchesWeightVectorsOverOneCompilation) {
  Server server;
  JsonValue response = Query(
      &server,
      R"js({"sentence": "exists x exists y (R(x,y) & U(y))", "domain": 3,
            "weights": [{}, {"R": ["1/2", "1"], "U": ["2", "3"]}]})js");
  EXPECT_EQ(response.At("status").string, "ok");
  ASSERT_EQ(response.At("results").array.size(), 2u);
  // Default weights (1,1): FOMC of the sentence at n=3, i.e. 2^12 minus
  // the 729 models in which no column y has U(y) with an incoming R edge.
  EXPECT_EQ(response.At("results").array[0].At("wfomc").string, "3367");
  // The same batch under a rational reweighting, computed by hand:
  // (3/2)^9 * 5^3 minus the complement (97/8)^3, all over a common 512.
  EXPECT_EQ(response.At("results").array[1].At("wfomc").string,
            "773851/256");
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.circuits, 1u);
}

TEST(Serve, SecondQueryIsServedFromTheCircuitCache) {
  Server server;
  const std::string line =
      R"js({"sentence": "forall x forall y S(x,y)", "domain": 3})js";
  JsonValue cold = Query(&server, line);
  JsonValue warm = Query(&server, line);
  EXPECT_EQ(cold.At("cached").boolean, false);
  EXPECT_TRUE(cold.Has("compile_seconds"));
  EXPECT_EQ(warm.At("cached").boolean, true);
  EXPECT_FALSE(warm.Has("compile_seconds"));
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST(Serve, LruEvictsTheLeastRecentlyUsedCircuit) {
  ServerOptions options;
  options.max_circuits = 2;
  Server server(options);
  // Arity 3 keeps the sentence off the lifted path, so each domain size
  // compiles its own grounded circuit (a liftable sentence would share
  // one cache entry across all three domains and never evict).
  const std::string a =
      R"js({"sentence": "forall x T(x,x,x)", "domain": 2})js";
  const std::string b =
      R"js({"sentence": "forall x T(x,x,x)", "domain": 3})js";
  const std::string c =
      R"js({"sentence": "forall x T(x,x,x)", "domain": 4})js";
  Query(&server, a);
  Query(&server, b);
  Query(&server, a);  // refresh a: b is now the LRU victim
  Query(&server, c);  // evicts b
  EXPECT_EQ(server.Stats().evictions, 1u);
  EXPECT_EQ(Query(&server, a).At("cached").boolean, true);
  EXPECT_EQ(Query(&server, b).At("cached").boolean, false);  // recompiled
}

TEST(Serve, LiftedSentenceSharesOneCacheEntryAcrossDomainSizes) {
  // The tentpole contract at the daemon level: a liftable FO² sentence
  // is cached under the canonical sentence alone, so queries at three
  // different domain sizes compile once and hit twice — one lifted
  // circuit serves every n.
  Server server;
  auto line = [](int n) {
    return R"js({"sentence": "forall x exists y S(x,y)", "domain": )js" +
           std::to_string(n) + "}";
  };
  JsonValue cold = Query(&server, line(3));
  EXPECT_EQ(cold.At("status").string, "ok");
  EXPECT_EQ(cold.At("kind").string, "lifted");
  EXPECT_EQ(cold.At("cached").boolean, false);
  // (2^n - 1)^n: every element picks a non-empty successor set.
  EXPECT_EQ(cold.At("results").array[0].At("wfomc").string, "343");
  JsonValue warm5 = Query(&server, line(5));
  JsonValue warm9 = Query(&server, line(9));
  EXPECT_EQ(warm5.At("kind").string, "lifted");
  EXPECT_EQ(warm5.At("cached").boolean, true);
  EXPECT_EQ(warm5.At("results").array[0].At("wfomc").string, "28629151");
  EXPECT_EQ(warm9.At("cached").boolean, true);
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.circuits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  // A grounded query reports its kind too.
  JsonValue grounded = Query(
      &server, R"js({"sentence": "forall x T(x,x,x)", "domain": 2})js");
  EXPECT_EQ(grounded.At("kind").string, "grounded");
}

TEST(Serve, ByteBoundCountsVocabularyStrings) {
  // Regression: CompiledQuery::MemoryBytes once ignored the vocabulary
  // snapshot's strings, so a circuit dragging a huge relation name slid
  // under any byte bound. Pin the bound just above a short-named
  // circuit's true footprint: the short name must cache, the long name
  // (identical circuit shape, ~64 KiB of relation name) must not.
  std::string long_name(std::size_t{1} << 16, 'Z');
  api::Engine sizer{logic::Vocabulary{}};
  api::CompileResult sized = sizer.Compile(
      sizer.Parse("forall x exists y S(x,y)"), api::CompileOptions{});
  ASSERT_TRUE(sized.compiled.has_value());

  ServerOptions options;
  options.max_circuit_bytes = sized.compiled->MemoryBytes() + 4096;
  Server server(options);
  const std::string short_line =
      R"js({"sentence": "forall x exists y S(x,y)", "domain": 3})js";
  const std::string long_line =
      R"js({"sentence": "forall x exists y )js" + long_name +
      R"js((x,y)", "domain": 3})js";
  EXPECT_EQ(Query(&server, short_line).At("cached").boolean, false);
  EXPECT_EQ(Query(&server, short_line).At("cached").boolean, true);
  JsonValue big = Query(&server, long_line);
  EXPECT_EQ(big.At("status").string, "ok");
  EXPECT_EQ(big.At("results").array[0].At("wfomc").string, "343");
  // Served, but the vocabulary bytes pushed it past the bound: a second
  // identical query recompiles.
  EXPECT_EQ(Query(&server, long_line).At("cached").boolean, false);
  EXPECT_EQ(server.Stats().circuits, 1u);
}

TEST(Serve, OversizedCircuitIsServedButNotCached) {
  ServerOptions options;
  options.max_circuit_bytes = 1;  // nothing fits
  Server server(options);
  const std::string line =
      R"js({"sentence": "forall x U(x)", "domain": 2})js";
  EXPECT_EQ(Query(&server, line).At("status").string, "ok");
  EXPECT_EQ(Query(&server, line).At("cached").boolean, false);
  EXPECT_EQ(server.Stats().circuits, 0u);
}

TEST(Serve, MalformedLineYieldsErrorAndTheServerKeepsServing) {
  Server server;
  JsonValue error = Query(&server, "this is not json");
  EXPECT_EQ(error.At("status").string, "error");
  JsonValue recovered = Query(
      &server, R"js({"sentence": "forall x U(x)", "domain": 1})js");
  EXPECT_EQ(recovered.At("status").string, "ok");
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST(Serve, RequestShapedProblemsAreErrorsNotCrashes) {
  Server server;
  EXPECT_EQ(Query(&server, R"js([1, 2, 3])js").At("status").string, "error");
  EXPECT_EQ(Query(&server, R"js({"domain": 3})js").At("status").string,
            "error");
  EXPECT_EQ(Query(&server, R"js({"sentence": "forall x U(x)"})js")
                .At("status").string,
            "error");
  EXPECT_EQ(Query(&server,
                  R"js({"sentence": "forall x U(x)", "domain": -3})js")
                .At("status").string,
            "error");
  JsonValue overflow = Query(
      &server,
      R"js({"sentence": "forall x U(x)", "domain": 18446744073709551616})js");
  EXPECT_EQ(overflow.At("status").string, "error");
  EXPECT_EQ(overflow.At("error").string,
            "\"domain\" must be a non-negative integer");
  EXPECT_EQ(Query(&server,
                  R"js({"sentence": "forall x U(", "domain": 3})js")
                .At("status").string,
            "error");
  EXPECT_EQ(Query(&server, R"js({"cmd": "frobnicate"})js").At("status").string,
            "error");
  EXPECT_EQ(Query(&server,
                  R"js({"cmd": "query", "sentence": "forall x U(x)",
                        "domain": 3, "mode": "warp"})js")
                .At("status").string,
            "error");
  // After all of that, the daemon still answers.
  EXPECT_EQ(Query(&server, R"js({"sentence": "forall x U(x)", "domain": 1})js")
                .At("status").string,
            "ok");
}

TEST(Serve, PerVectorProblemsDoNotFailTheRequest) {
  Server server;
  JsonValue response = Query(
      &server,
      R"js({"sentence": "forall x U(x)", "domain": 2,
            "weights": [{"Q": ["1", "1"]}, {"U": ["oops", "1"]},
                        {"U": ["1/2", "3"]}]})js");
  EXPECT_EQ(response.At("status").string, "ok");
  ASSERT_EQ(response.At("results").array.size(), 3u);
  EXPECT_NE(response.At("results").array[0].At("error").string.find(
                "unknown relation 'Q'"),
            std::string::npos);
  EXPECT_TRUE(response.At("results").array[1].Has("error"));
  EXPECT_EQ(response.At("results").array[2].At("wfomc").string, "1/4");
}

TEST(Serve, PooledBatchEvaluationMatchesSequentialByteForByte) {
  // The batch-evaluation pool is the one place the library runs threads:
  // eight weight vectors (one naming an unknown relation) fanned out over
  // one read-only circuit must come back in request order, byte-identical
  // to a single-threaded server — on a grounded circuit and a lifted one,
  // cold (compiled by this request) and warm (served from the cache).
  const std::string weights =
      R"js("weights": [{}, {"S": ["2", "1"]}, {"S": ["1/2", "3"]},
                      {"Q": ["1", "1"]}, {"S": ["-1", "2"]},
                      {"S": ["0", "1"]}, {"S": ["5/7", "-3/4"]},
                      {"S": ["3", "3"]}]})js";
  const struct {
    std::string line;
    std::string kind;
  } cases[] = {
      {R"js({"sentence": "exists x exists y exists z )js"
       R"js((S(x,y) & S(y,z) & S(z,x))", "domain": 3, )js" +
           weights,
       "grounded"},
      {R"js({"sentence": "forall x exists y S(x,y)", "domain": 4, )js" +
           weights,
       "lifted"},
  };
  ServerOptions pooled_options;
  pooled_options.num_threads = 4;
  Server sequential;
  Server pooled(pooled_options);
  ASSERT_EQ(pooled.options().num_threads, 4u);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.kind);
    for (bool warm : {false, true}) {
      SCOPED_TRACE(warm ? "warm" : "cold");
      JsonValue expected = Query(&sequential, c.line);
      JsonValue actual = Query(&pooled, c.line);
      ASSERT_EQ(expected.At("status").string, "ok");
      ASSERT_EQ(actual.At("status").string, "ok");
      EXPECT_EQ(actual.At("kind").string, c.kind);
      EXPECT_EQ(actual.At("cached").boolean, warm);
      const JsonValue& results = actual.At("results");
      ASSERT_EQ(results.array.size(), 8u);
      EXPECT_NE(results.array[3].At("error").string.find(
                    "unknown relation 'Q'"),
                std::string::npos);
      for (std::size_t i = 0; i < results.array.size(); ++i) {
        if (i != 3) {
          EXPECT_TRUE(results.array[i].Has("wfomc")) << i;
        }
      }
      EXPECT_EQ(results.Dump(-1), expected.At("results").Dump(-1));
    }
  }
}

TEST(Serve, OversizedRequestLineIsRejectedPerRequest) {
  ServerOptions options;
  options.max_request_bytes = 64;
  Server server(options);
  std::string huge =
      R"js({"sentence": ")js" + std::string(200, 'x') + R"js("})js";
  JsonValue error = Query(&server, huge);
  EXPECT_EQ(error.At("status").string, "error");
  EXPECT_NE(error.At("error").string.find("exceeds"), std::string::npos);
  EXPECT_EQ(Query(&server, R"js({"cmd": "stats"})js").At("status").string,
            "ok");
}

TEST(Serve, BudgetExhaustedCompileFallsBackToCertifiedBounds) {
  Server server;
  JsonValue response = Query(
      &server,
      R"js({"sentence":
            "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))",
            "domain": 7, "max_decisions": 0})js");
  EXPECT_EQ(response.At("status").string, "ok");
  EXPECT_EQ(response.At("compile_outcome").string, "aborted");
  ASSERT_EQ(response.At("results").array.size(), 1u);
  const JsonValue& result = response.At("results").array[0];
  EXPECT_EQ(result.At("outcome").string, "bounds");
  EXPECT_TRUE(result.Has("lower"));
  EXPECT_TRUE(result.Has("upper"));
  // The partial circuit must not have been cached.
  EXPECT_EQ(server.Stats().circuits, 0u);
}

TEST(Serve, RequestLimitsOverrideTheServerDefault) {
  ServerOptions options;
  options.limits.max_decisions = 0;  // default envelope: nothing completes
  Server server(options);
  const std::string triangle =
      R"js("exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))")js";
  JsonValue bounded = Query(
      &server,
      R"js({"sentence": )js" + triangle + R"js(, "domain": 5})js");
  EXPECT_EQ(bounded.At("compile_outcome").string, "aborted");
  JsonValue exact = Query(
      &server,
      R"js({"sentence": )js" + triangle +
          R"js(, "domain": 5, "max_decisions": 100000000})js");
  EXPECT_EQ(exact.At("status").string, "ok");
  EXPECT_FALSE(exact.Has("compile_outcome"));
  ASSERT_TRUE(exact.At("results").array[0].Has("wfomc"));
  // Cross-check the compiled exact count against an independent direct
  // (uncompiled) count of the same query.
  JsonValue direct = Query(
      &server,
      R"js({"sentence": )js" + triangle +
          R"js(, "domain": 5, "mode": "direct",
               "max_decisions": 100000000})js");
  EXPECT_EQ(direct.At("results").array[0].At("wfomc").string,
            exact.At("results").array[0].At("wfomc").string);
}

TEST(Serve, DirectModeMatchesCompileMode) {
  Server server;
  JsonValue compiled = Query(
      &server,
      R"js({"sentence": "forall x exists y S(x,y)", "domain": 3})js");
  JsonValue direct = Query(
      &server,
      R"js({"sentence": "forall x exists y S(x,y)", "domain": 3,
            "mode": "direct", "method": "lifted-fo2"})js");
  EXPECT_EQ(compiled.At("results").array[0].At("wfomc").string, "343");
  EXPECT_EQ(direct.At("results").array[0].At("wfomc").string, "343");
  EXPECT_FALSE(direct.Has("cached"));  // direct mode bypasses the cache
}

TEST(Serve, QuitStopsTheStreamAfterDrainingResponses) {
  Server server;
  std::istringstream in(
      "{\"sentence\": \"forall x U(x)\", \"domain\": 1}\n"
      "\n"
      "{\"cmd\": \"stats\"}\n"
      "{\"cmd\": \"quit\"}\n"
      "{\"sentence\": \"forall x U(x)\", \"domain\": 2}\n");
  std::ostringstream out;
  EXPECT_EQ(server.ServeStream(in, out), 0);
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  for (std::string line; std::getline(reader, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // quit drained; the trailing query unread
  EXPECT_EQ(ParseJson(lines[0]).At("status").string, "ok");
  EXPECT_EQ(ParseJson(lines[1]).At("status").string, "ok");
  EXPECT_EQ(ParseJson(lines[2]).At("bye").boolean, true);
}

TEST(Serve, EofIsACleanExit) {
  Server server;
  std::istringstream in("{\"sentence\": \"forall x U(x)\", \"domain\": 1}\n");
  std::ostringstream out;
  EXPECT_EQ(server.ServeStream(in, out), 0);
}

TEST(Serve, TcpRoundTripAndShutdown) {
  Server server;
  std::promise<std::uint16_t> port_promise;
  std::future<std::uint16_t> port_future = port_promise.get_future();
  std::thread daemon([&] {
    server.ServeTcp(0, [&](std::uint16_t port) {
      port_promise.set_value(port);
    });
  });
  std::uint16_t port = port_future.get();

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::string request =
      "{\"sentence\": \"forall x forall y S(x,y)\", \"domain\": 3,"
      " \"weights\": [{\"S\": [\"2\", \"1\"]}]}\n"
      "{\"cmd\": \"shutdown\"}\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string received;
  char buffer[4096];
  for (ssize_t n = 0; (n = ::read(fd, buffer, sizeof(buffer))) > 0;) {
    received.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  daemon.join();

  std::vector<std::string> lines;
  std::istringstream reader(received);
  for (std::string line; std::getline(reader, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(ParseJson(lines[0]).At("results").array[0].At("wfomc").string,
            "512");
  EXPECT_EQ(ParseJson(lines[1]).At("bye").boolean, true);
}

// TSan target: four client threads hammering one server — the same hot
// circuit plus enough distinct keys to keep the tiny LRU evicting — must
// produce correct counts with no data race between the cache, the arena
// pool, and the stats counters.
TEST(Serve, ConcurrentClientsShareCircuitsSafely) {
  // With 4 threads the clients' two-vector batches also share one pool's
  // workers.
  for (unsigned num_threads : {1u, 4u}) {
    SCOPED_TRACE("num_threads " + std::to_string(num_threads));
    ServerOptions options;
    options.max_circuits = 2;
    options.num_threads = num_threads;
    Server server(options);
    constexpr int kThreads = 4;
    constexpr int kIterations = 25;
    std::vector<std::thread> clients;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&server, &failures, t] {
        for (int i = 0; i < kIterations; ++i) {
          // All threads share domain 3 (the hot circuit); the rotating
          // domain 1/2 queries force evictions underneath it.
          std::string hot =
              R"js({"sentence": "forall x forall y S(x,y)", "domain": 3,
                    "weights": [{"S": ["2", "1"]}, {"S": ["3", "1"]}]})js";
          std::string churn =
              R"js({"sentence": "forall x U(x)", "domain": )js" +
              std::to_string(1 + (t + i) % 2) + "}";
          JsonValue a = server.HandleLine(hot).json;
          JsonValue b = server.HandleLine(churn).json;
          if (a.At("status").string != "ok" ||
              a.At("results").array[0].At("wfomc").string != "512" ||
              a.At("results").array[1].At("wfomc").string != "19683" ||
              b.At("status").string != "ok") {
            ++failures[t];
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
    ServerStats stats = server.Stats();
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(stats.requests,
              static_cast<std::uint64_t>(2 * kThreads * kIterations));
  }
}

// First sample value of `name` in a Prometheus-style exposition text.
std::uint64_t MetricValue(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stoull(line.substr(name.size() + 1));
    }
  }
  ADD_FAILURE() << "metric " << name << " missing from exposition";
  return 0;
}

TEST(Serve, EvictionReportsBytesAndPeak) {
  // Regression for the stats gaps: evictions must account their bytes,
  // and the byte high-water mark must survive the eviction (the level
  // drops, the peak does not).
  ServerOptions options;
  options.max_circuits = 1;
  Server server(options);
  Query(&server, R"js({"sentence": "forall x T(x,x,x)", "domain": 2})js");
  ServerStats before = server.Stats();
  EXPECT_EQ(before.evictions, 0u);
  EXPECT_EQ(before.evicted_bytes, 0u);
  EXPECT_EQ(before.circuit_bytes_peak, before.circuit_bytes);
  Query(&server, R"js({"sentence": "forall x T(x,x,x)", "domain": 3})js");
  ServerStats after = server.Stats();
  EXPECT_EQ(after.evictions, 1u);
  EXPECT_GE(after.evicted_bytes, before.circuit_bytes);
  EXPECT_GE(after.circuit_bytes_peak, after.circuit_bytes);
  EXPECT_GT(after.circuit_bytes_peak, 0u);

  // The `stats` payload carries the new fields.
  JsonValue stats_json = Query(&server, R"js({"cmd": "stats"})js");
  EXPECT_EQ(stats_json.At("evictions").string, "1");
  EXPECT_EQ(stats_json.At("evicted_bytes").string,
            std::to_string(after.evicted_bytes));
  EXPECT_EQ(stats_json.At("circuit_bytes_peak").string,
            std::to_string(after.circuit_bytes_peak));
}

TEST(Serve, MetricsCommandMatchesSessionGroundTruth) {
  Server server;
  const std::string line =
      R"js({"sentence": "forall x forall y S(x,y)", "domain": 3,
            "weights": [{"S": ["2", "1"]}, {"S": ["3", "1"]}]})js";
  Query(&server, line);  // cold: compiles
  Query(&server, line);  // warm: cache hit
  Query(&server, "{}");  // missing sentence: error

  JsonValue response = Query(&server, R"js({"id": 9, "cmd": "metrics"})js");
  EXPECT_EQ(response.At("status").string, "ok");
  EXPECT_EQ(response.At("id").string, "9");
  const std::string& text = response.At("exposition").string;
  // The exposition is built before the metrics request itself is
  // counted, so it reflects exactly the three preceding requests.
  EXPECT_EQ(MetricValue(text, "swfomc_serve_requests_total"), 3u);
  EXPECT_EQ(MetricValue(text, "swfomc_serve_errors_total"), 1u);
  EXPECT_EQ(MetricValue(text, "swfomc_serve_cache_hits_total"), 1u);
  EXPECT_EQ(MetricValue(text, "swfomc_serve_cache_misses_total"), 1u);
  EXPECT_EQ(MetricValue(text, "swfomc_serve_cache_circuits"), 1u);
  EXPECT_EQ(MetricValue(text, "swfomc_serve_request_usec_warm_count"), 1u);
  EXPECT_EQ(MetricValue(text, "swfomc_serve_request_usec_cold_count"), 2u);
  // Two batches of two vectors each landed in the batch histogram.
  EXPECT_EQ(MetricValue(text, "swfomc_serve_batch_size_count"), 2u);
  EXPECT_EQ(MetricValue(text, "swfomc_serve_batch_size_sum"), 4u);
  // The engine-level instruments ride in the same registry.
  EXPECT_GE(MetricValue(text, "swfomc_engine_queries_total"), 1u);
}

TEST(Serve, MetricsStayMonotoneUnderConcurrentQueries) {
  // Satellite contract: hammer queries from worker threads while this
  // thread polls the `metrics` command — every scraped counter must be
  // monotone, and the final totals must equal the ground truth.
  Server server;
  constexpr int kThreads = 4;
  constexpr int kIterations = 20;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&server, &running] {
      for (int i = 0; i < kIterations; ++i) {
        server.HandleLine(
            R"js({"sentence": "forall x forall y S(x,y)", "domain": 3})js");
      }
      running.fetch_sub(1);
    });
  }
  std::uint64_t last_requests = 0;
  std::uint64_t last_hits = 0;
  while (running.load() > 0) {
    JsonValue response = server.HandleLine(R"js({"cmd": "metrics"})js").json;
    ASSERT_EQ(response.At("status").string, "ok");
    const std::string& text = response.At("exposition").string;
    std::uint64_t requests =
        MetricValue(text, "swfomc_serve_requests_total");
    std::uint64_t hits = MetricValue(text, "swfomc_serve_cache_hits_total");
    EXPECT_GE(requests, last_requests);
    EXPECT_GE(hits, last_hits);
    last_requests = requests;
    last_hits = hits;
  }
  for (std::thread& client : clients) client.join();
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<std::uint64_t>(kThreads * kIterations));
  EXPECT_EQ(stats.errors, 0u);
}

TEST(Serve, TraceLogRecordsRequestSpans) {
  std::ostringstream out;
  obs::TraceLog trace(&out);
  ServerOptions options;
  options.trace = &trace;
  Server server(options);
  Query(&server,
        R"js({"sentence": "forall x forall y S(x,y)", "domain": 3})js");
  Query(&server,
        R"js({"sentence": "forall x forall y S(x,y)", "domain": 3})js");
  std::istringstream lines(out.str());
  std::string line;
  int request_spans = 0;
  while (std::getline(lines, line)) {
    JsonValue record = ParseJson(line, "<trace>");
    if (record.At("name").string == "serve_request") {
      ++request_spans;
      EXPECT_EQ(record.At("type").string, "span");
      EXPECT_TRUE(record.Has("dur_us"));
      EXPECT_EQ(record.At("mode").string, "compile");
    }
  }
  EXPECT_EQ(request_spans, 2);
}

}  // namespace
}  // namespace swfomc
