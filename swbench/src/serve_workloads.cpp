// The two serving workloads: JSONL request lines into Server::HandleLine,
// one closed-loop caller. serve_warm answers every request from circuits
// compiled in set-up; serve_cold cycles through more distinct circuit keys
// than the cache holds, so every request compiles, inserts and evicts.
// Both send one request per circuit key per cycle, in a seeded order.
//
// The traced operation sends the line to the server as usual (span
// "serve.request") and then replays the request as the public calls the
// server's path is made of, one span each, so the server's own share of
// the time is what the replay does not cover.
#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/engine.h"
#include "closedforms/closed_forms.h"
#include "grounding/grounded_wfomc.h"
#include "grounding/lineage.h"
#include "grounding/tuple_index.h"
#include "harness.h"
#include "inputs.h"
#include "io/json.h"
#include "logic/parser.h"
#include "nnf/circuit.h"
#include "nnf/circuit_builder.h"
#include "prop/tseitin.h"
#include "references.h"
#include "serve/server.h"
#include "wmc/dpll_counter.h"

namespace swbench {

namespace {

using numeric::BigRational;

enum class ServeRef { kClosedWalk, kTypedTriangle, kForallExists, kTable1,
                      kSymmetric, kSmokers, kMutual, kCovered };

struct ServeSpec {
  const char* sentence;
  std::uint64_t n_lo;  // each request line draws n from [n_lo, n_hi]
  std::uint64_t n_hi;
  ServeRef reference;
  int walk_length;  // kClosedWalk only
};

// Liftable FO² sentences: one domain-parametric circuit per sentence.
const char* const kForallExists = "forall x exists y R(x,y)";
const char* const kTable1 = "forall x forall y (U(x) | S(x,y) | T(y))";
const char* const kSmokers = "forall x forall y ((Sm(x) & F(x,y)) => Sm(y))";
const char* const kMutual = "forall x exists y (R(x,y) & R(y,x))";
const char* const kSymmetric = "forall x forall y (R(x,y) => R(y,x))";
const char* const kCovered = "forall x exists y (R(x,y) | U(x))";

// Hot set: grounded circuits at n=4 (a few thousand nodes) and the
// triangle at n=5 (about 10^5 nodes, too big for the CPU caches), and
// lifted circuits evaluated at n=8..24.
const ServeSpec kWarmSpecs[] = {
    {kTriangle, 4, 4, ServeRef::kClosedWalk, 3},
    {kFourCycle, 4, 4, ServeRef::kClosedWalk, 4},
    {kTriangle, 5, 5, ServeRef::kClosedWalk, 3},
    {kForallExists, 8, 24, ServeRef::kForallExists, 0},
    {kMutual, 8, 16, ServeRef::kMutual, 0},
    {kSymmetric, 8, 24, ServeRef::kSymmetric, 0},
    {kSmokers, 8, 12, ServeRef::kSmokers, 0},
};

// Thirteen distinct circuit keys against a four-entry cache: every key
// comes back only after the twelve others, so it has always been evicted.
const ServeSpec kColdSpecs[] = {
    {kTriangle, 4, 4, ServeRef::kClosedWalk, 3},
    {kTriangle, 2, 2, ServeRef::kClosedWalk, 3},
    {kTriangle, 3, 3, ServeRef::kClosedWalk, 3},
    {kFourCycle, 2, 2, ServeRef::kClosedWalk, 4},
    {kFourCycle, 3, 3, ServeRef::kClosedWalk, 4},
    {kFourCycle, 4, 4, ServeRef::kClosedWalk, 4},
    {kTypedTriangle, 2, 2, ServeRef::kTypedTriangle, 0},
    {kForallExists, 8, 16, ServeRef::kForallExists, 0},
    {kTable1, 6, 8, ServeRef::kTable1, 0},
    {kSmokers, 8, 12, ServeRef::kSmokers, 0},
    {kMutual, 8, 16, ServeRef::kMutual, 0},
    {kSymmetric, 8, 16, ServeRef::kSymmetric, 0},
    {kCovered, 8, 12, ServeRef::kCovered, 0},
};

struct ServeConfig {
  const ServeSpec* specs;
  std::size_t spec_count;
  std::size_t batch;           // weight vectors per request
  std::size_t lines_per_spec;  // distinct request lines per spec
  std::size_t max_circuits;    // the server's LRU entry bound
  bool warm;
};

const ServeConfig kWarmConfig = {kWarmSpecs, std::size(kWarmSpecs), 4, 8, 64,
                                 true};
const ServeConfig kColdConfig = {kColdSpecs, std::size(kColdSpecs), 2, 8, 4,
                                 false};

// Request lines (sentences, domain sizes, weights) come from this seed;
// the run's seed orders them.
constexpr std::uint64_t kCatalogSeed = 2015;
// Seeded cycle orders serve_warm rotates through; prime, so a line (sent
// every lines_per_spec-th cycle) meets every order in turn.
constexpr std::size_t kWarmOrders = 61;

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, const ServeConfig& config)
      : seed_(seed), config_(config) {}

  void Setup() override {
    Rng rng(seed_);
    Rng catalog(kCatalogSeed);
    offset_ = rng() % config_.lines_per_spec;
    serve::ServerOptions options;
    options.num_threads = 1;
    options.max_circuits = config_.max_circuits;
    server_ = std::make_unique<serve::Server>(options);
    lines_.clear();
    compiled_.clear();
    for (std::size_t s = 0; s < config_.spec_count; ++s) {
      const ServeSpec& spec = config_.specs[s];
      logic::Vocabulary vocabulary;
      logic::Parse(spec.sentence, &vocabulary);
      for (std::size_t i = 0; i < config_.lines_per_spec; ++i) {
        Line line;
        line.spec = s;
        line.n = spec.n_lo + catalog() % (spec.n_hi - spec.n_lo + 1);
        std::string weights;
        for (std::size_t b = 0; b < config_.batch; ++b) {
          line.weights.push_back(RandomWeights(
              &catalog, vocabulary,
              spec.reference == ServeRef::kClosedWalk ||
                      spec.reference == ServeRef::kTypedTriangle
                  ? WeightKind::kRational
                  : WeightKind::kInteger));
          weights += (b > 0 ? ", " : "") + WeightsJson(line.weights.back());
        }
        line.text = "{\"id\": " + std::to_string(lines_.size()) +
                    ", \"sentence\": \"" + io::EscapeJson(spec.sentence) +
                    "\", \"domain\": " + std::to_string(line.n) +
                    ", \"weights\": [" + weights + "]}";
        lines_.push_back(std::move(line));
      }
    }
    // serve_cold keeps one order, so every key's reuse distance is the
    // cycle length. serve_warm cycles through many orders, so no request
    // always runs right after the same one (after the 10^5-node triangle
    // circuit, say, with the CPU caches full of its nodes).
    orders_.assign(config_.warm ? kWarmOrders : 1, {});
    for (std::vector<std::size_t>& order : orders_) {
      order.resize(config_.spec_count);
      for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
      std::shuffle(order.begin(), order.end(), rng);
    }
    if (config_.warm) {
      // Prime the cache with every key of the hot set.
      for (std::size_t s = 0; s < config_.spec_count; ++s) {
        Server::Reply reply =
            server_->HandleLine(lines_[s * config_.lines_per_spec].text);
        if (reply.json.At("status").string != "ok") {
          throw std::runtime_error("priming request failed: " +
                                   reply.json.Dump(-1));
        }
      }
    }
    baseline_ = server_->Stats();
  }

  std::size_t CycleLength() const override { return config_.spec_count; }
  std::size_t CyclesPerRound() const override {
    return config_.lines_per_spec;
  }

  Done Run(std::size_t index, std::size_t cycle, Tracer* tracer) override {
    // Cycle c sends each spec's line (c + offset) mod lines_per_spec, so a
    // round of lines_per_spec cycles sends every line once.
    const std::vector<std::size_t>& order = orders_[cycle % orders_.size()];
    std::size_t line_index = order[index] * config_.lines_per_spec +
                             (cycle + offset_) % config_.lines_per_spec;
    const Line& line = lines_[line_index];
    try {
      std::vector<std::string> answers =
          tracer == nullptr ? Request(line) : Traced(line, tracer);
      log_.Record(line_index, std::move(answers));
    } catch (const std::exception& error) {
      log_.Error(line.text + ": " + error.what());
    }
    return {line.weights.size(), line_index};
  }

  CheckResult Verify() override {
    CheckResult check = log_.Start();
    // The enumerated count tables the FO³ references are read from; built
    // here, after timing, so that set-up is only the library's share.
    ReferenceTables tables;
    for (std::size_t s = 0; s < config_.spec_count; ++s) {
      const ServeSpec& spec = config_.specs[s];
      int n = static_cast<int>(spec.n_lo);
      if (spec.reference == ServeRef::kClosedWalk) {
        tables.AddClosedWalk(n, spec.walk_length);
      } else if (spec.reference == ServeRef::kTypedTriangle) {
        tables.AddTypedTriangle(n);
      }
    }
    if (!tables.PinnedTotalsHold()) {
      Fail(&check, "reference enumerator disagrees with its pinned total");
    }
    for (const auto& [line_index, answers] : log_.first()) {
      const Line& line = lines_[line_index];
      try {
        if (answers != References(line, tables)) {
          log_.FailKey(&check, line_index,
                       line.text + ": answers differ from the reference");
        }
      } catch (const std::exception& error) {
        log_.FailKey(&check, line_index,
                     line.text + ": reference failed: " + error.what());
      }
    }
    return check;
  }

  std::string CheckGuards() override {
    int threads = ProcessThreadCount();
    if (threads != 1 || server_->options().num_threads != 1) {
      return "expected a single-threaded process and server, found " +
             std::to_string(threads) + " threads";
    }
    serve::ServerStats now = server_->Stats();
    std::uint64_t hits = now.cache_hits - baseline_.cache_hits;
    std::uint64_t misses = now.cache_misses - baseline_.cache_misses;
    if (config_.warm && (misses != 0 || hits == 0)) {
      return "serve_warm expects serve.cache_hit_ratio = 1, saw " +
             std::to_string(hits) + " hits and " + std::to_string(misses) +
             " misses";
    }
    if (!config_.warm && hits != 0) {
      return "serve_cold expects serve.cache_hit_ratio = 0, saw " +
             std::to_string(hits) + " hits";
    }
    return "";
  }

  void AddLayerMetrics(std::map<std::string, double>* metrics) override {
    serve::ServerStats now = server_->Stats();
    double hits = static_cast<double>(now.cache_hits - baseline_.cache_hits);
    double misses =
        static_cast<double>(now.cache_misses - baseline_.cache_misses);
    double requests =
        static_cast<double>(now.requests - baseline_.requests);
    (*metrics)["serve.cache_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    (*metrics)["serve.evictions"] =
        requests > 0
            ? static_cast<double>(now.evictions - baseline_.evictions) /
                  requests
            : 0;
    (*metrics)["serve.circuit_bytes"] =
        static_cast<double>(now.circuit_bytes_peak);
  }

 private:
  using Server = serve::Server;

  struct Line {
    std::size_t spec = 0;
    std::uint64_t n = 0;
    std::vector<WeightVector> weights;
    std::string text;
  };

  // The operation users run: one request line in, one response line out.
  std::vector<std::string> Request(const Line& line) {
    Server::Reply reply = server_->HandleLine(line.text);
    std::string response = reply.json.Dump(-1);
    if (response.empty()) throw std::runtime_error("empty response");
    return Answers(reply.json);
  }

  static std::vector<std::string> Answers(const io::JsonValue& response) {
    if (response.At("status").string != "ok") {
      throw std::runtime_error("status error: " + response.Dump(-1));
    }
    std::vector<std::string> answers;
    for (const io::JsonValue& result : response.At("results").array) {
      answers.push_back(result.At("wfomc").string);
    }
    return answers;
  }

  std::vector<std::string> Traced(const Line& line, Tracer* tracer) {
    Tracer::Scope op(tracer, "op");
    std::vector<std::string> answers;
    {
      Tracer::Scope span(tracer, "serve.request");
      answers = Request(line);
    }
    std::vector<std::string> replayed = Replay(line.text, tracer);
    if (replayed != answers) {
      throw std::runtime_error("replayed answers differ from the server's");
    }
    return answers;
  }

  // The server's path as public calls: parse the request, parse and route
  // the sentence, compile (cold) or fetch the compiled circuit (warm),
  // expand each weight vector and evaluate, then serialize the response.
  std::vector<std::string> Replay(const std::string& text, Tracer* tracer) {
    std::string sentence_text;
    std::uint64_t n = 0;
    std::vector<std::vector<api::RelationWeights>> vectors;
    {
      Tracer::Scope span(tracer, "io.parse_request");
      io::JsonValue request = io::ParseJson(text, "<request>");
      sentence_text = request.At("sentence").string;
      n = std::stoull(request.At("domain").string);
      for (const io::JsonValue& object : request.At("weights").array) {
        std::vector<api::RelationWeights> reweights;
        for (const auto& [name, pair] : object.object) {
          api::RelationWeights reweight;
          reweight.relation = name;
          reweight.positive = BigRational::FromString(pair.array[0].string);
          reweight.negative = BigRational::FromString(pair.array[1].string);
          reweights.push_back(std::move(reweight));
        }
        vectors.push_back(std::move(reweights));
      }
    }
    api::Engine parser{logic::Vocabulary{}};
    logic::Formula sentence;
    {
      Tracer::Scope span(tracer, "logic.parse");
      sentence = parser.Parse(sentence_text);
    }
    bool lifted = false;
    {
      Tracer::Scope span(tracer, "api.route");
      lifted = n >= 1 && parser.CanCompileLifted(sentence);
    }
    std::vector<BigRational> values;
    if (config_.warm) {
      values = EvaluateCompiled(CompiledFor(sentence_text, n, parser, sentence),
                                n, vectors, tracer);
    } else if (lifted) {
      api::CompileResult compiled;
      {
        Tracer::Scope span(tracer, "fo2.compile_lifted");
        api::Engine compiler(parser.vocabulary());
        api::CompileOptions options;
        options.method = api::Method::kLiftedFO2;
        compiled = compiler.Compile(sentence, options);
      }
      values = EvaluateCompiled(*compiled.compiled, n, vectors, tracer);
    } else {
      values = CompileAndEvaluateGrounded(parser.vocabulary(), sentence, n,
                                          vectors, tracer);
    }
    std::vector<std::string> answers;
    {
      Tracer::Scope span(tracer, "io.dump");
      io::JsonValue response = io::JsonValue::MakeObject();
      response.Add("status", io::JsonValue::MakeString("ok"));
      io::JsonValue results = io::JsonValue::MakeArray();
      for (const BigRational& value : values) {
        io::JsonValue entry = io::JsonValue::MakeObject();
        entry.Add("wfomc", io::JsonValue::MakeString(value.ToString()));
        results.array.push_back(std::move(entry));
      }
      response.Add("results", std::move(results));
      std::string dumped = response.Dump(-1);
      if (dumped.empty()) throw std::runtime_error("empty dump");
      answers = Answers(response);
    }
    return answers;
  }

  // Warm replay: the circuit the server holds for this key, compiled once
  // per key through Engine::Compile the way the server compiled it.
  const api::CompiledQuery& CompiledFor(const std::string& sentence_text,
                                        std::uint64_t n, api::Engine& parser,
                                        const logic::Formula& sentence) {
    bool lifted = parser.CanCompileLifted(sentence);
    std::string key = lifted ? sentence_text
                             : sentence_text + "@" + std::to_string(n);
    auto it = compiled_.find(key);
    if (it == compiled_.end()) {
      api::Engine compiler(parser.vocabulary());
      api::CompileOptions options;
      options.domain_size = n;
      options.method = lifted ? api::Method::kLiftedFO2 : api::Method::kGrounded;
      api::CompileResult result = compiler.Compile(sentence, options);
      if (!result.compiled.has_value()) {
        throw std::runtime_error("compile did not finish");
      }
      it = compiled_.emplace(key, *std::move(result.compiled)).first;
    }
    return it->second;
  }

  std::vector<BigRational> EvaluateCompiled(
      const api::CompiledQuery& query, std::uint64_t n,
      const std::vector<std::vector<api::RelationWeights>>& vectors,
      Tracer* tracer) {
    std::vector<BigRational> values;
    bool lifted = query.kind() == api::CompiledQuery::Kind::kLifted;
    if (!lifted) {
      tracer->Observe("nnf.circuit_nodes",
                      static_cast<double>(query.circuit().node_count()));
      tracer->Observe("nnf.circuit_edges",
                      static_cast<double>(query.circuit().edge_count()));
    }
    for (const std::vector<api::RelationWeights>& reweights : vectors) {
      if (lifted) {
        nnf::LiftedCircuit::Weights weights;
        {
          Tracer::Scope span(tracer, "api.weights");
          weights = query.LiftedWeights(reweights);
        }
        Tracer::Scope span(tracer, "nnf.lifted_eval");
        values.push_back(query.lifted_circuit().Evaluate(
            n, weights, nullptr, &arena_.rational_values));
      } else {
        wmc::WeightMap weights;
        {
          Tracer::Scope span(tracer, "api.weights");
          weights = query.GroundWeights(reweights);
        }
        {
          Tracer::Scope span(tracer, "nnf.eval");
          values.push_back(query.circuit().Evaluate(weights, &arena_));
        }
        tracer->Count("nnf.eval_edges_total",
                      static_cast<double>(query.circuit().edge_count()));
      }
    }
    return values;
  }

  // Cold replay of a grounded key: the stages Engine::Compile runs, then
  // one pass of the traced circuit per weight vector.
  std::vector<BigRational> CompileAndEvaluateGrounded(
      const logic::Vocabulary& vocabulary, const logic::Formula& sentence,
      std::uint64_t n,
      const std::vector<std::vector<api::RelationWeights>>& vectors,
      Tracer* tracer) {
    std::optional<grounding::TupleIndex> index;
    prop::PropFormula lineage;
    {
      Tracer::Scope span(tracer, "grounding.lineage");
      index.emplace(vocabulary, n);
      lineage = grounding::GroundLineage(sentence, *index);
    }
    prop::TseitinResult tseitin;
    {
      Tracer::Scope span(tracer, "prop.tseitin");
      tseitin = prop::TseitinTransform(
          lineage, static_cast<std::uint32_t>(index->TupleCount()));
    }
    tracer->Observe("prop.cnf_clauses",
                    static_cast<double>(tseitin.cnf.clauses.size()));
    std::uint32_t variables = tseitin.cnf.variable_count;
    wmc::WeightMap weights;
    {
      Tracer::Scope span(tracer, "grounding.weights");
      weights = grounding::SymmetricGroundWeights(*index, variables);
    }
    nnf::CircuitBuilder builder(variables);
    wmc::DpllCounter::Stats stats;
    {
      Tracer::Scope span(tracer, "wmc.trace_count");
      wmc::DpllCounter::Options options;
      options.trace_sink = &builder;
      wmc::DpllCounter counter(std::move(tseitin.cnf), std::move(weights),
                               options);
      if (counter.CountBounded().outcome !=
          wmc::DpllCounter::CountOutcome::kExact) {
        throw std::runtime_error("traced count did not finish");
      }
      stats = counter.stats();
    }
    tracer->Observe("wmc.trace_memo_entries",
                    static_cast<double>(stats.cache_entries));
    nnf::Circuit circuit;
    {
      Tracer::Scope span(tracer, "nnf.finish");
      circuit = builder.Finish();
    }
    tracer->Observe("nnf.circuit_nodes",
                    static_cast<double>(circuit.node_count()));
    tracer->Observe("nnf.circuit_edges",
                    static_cast<double>(circuit.edge_count()));
    std::vector<BigRational> values;
    for (const std::vector<api::RelationWeights>& reweights : vectors) {
      wmc::WeightMap vector_weights;
      {
        Tracer::Scope span(tracer, "api.weights");
        logic::Vocabulary weighted = vocabulary;
        for (const api::RelationWeights& reweight : reweights) {
          weighted.SetWeights(weighted.Require(reweight.relation),
                              reweight.positive, reweight.negative);
        }
        grounding::TupleIndex weighted_index(weighted, n);
        vector_weights = grounding::SymmetricGroundWeights(
            weighted_index, circuit.variable_count());
      }
      {
        Tracer::Scope span(tracer, "nnf.eval");
        values.push_back(circuit.Evaluate(vector_weights, &arena_));
      }
      tracer->Count("nnf.eval_edges_total",
                    static_cast<double>(circuit.edge_count()));
    }
    return values;
  }

  // Each answer from a computation that shares no code with the server's
  // path: enumerated count tables for the FO³ queries, closed forms for
  // the FO² sentences.
  std::vector<std::string> References(const Line& line,
                                      const ReferenceTables& tables) const {
    const ServeSpec& spec = config_.specs[line.spec];
    std::vector<std::string> expected;
    for (const WeightVector& weights : line.weights) {
      BigRational value;
      int n = static_cast<int>(line.n);
      const NamedWeights& r = Find(weights, "R");
      switch (spec.reference) {
        case ServeRef::kClosedWalk:
          value = tables.closed_walk(n, spec.walk_length).WFOMC(r.w, r.wbar);
          break;
        case ServeRef::kTypedTriangle: {
          const NamedWeights& s = Find(weights, "S");
          const NamedWeights& t = Find(weights, "T");
          value = tables.typed_triangle(n).WFOMC(r.w, r.wbar, s.w, s.wbar,
                                                 t.w, t.wbar);
          break;
        }
        case ServeRef::kForallExists:
          value = closedforms::ForallExistsWFOMC(line.n, r.w, r.wbar);
          break;
        case ServeRef::kTable1: {
          const NamedWeights& u = Find(weights, "U");
          const NamedWeights& s = Find(weights, "S");
          const NamedWeights& t = Find(weights, "T");
          value = closedforms::Table1WFOMC(line.n, u.w, u.wbar, s.w, s.wbar,
                                           t.w, t.wbar);
          break;
        }
        case ServeRef::kSymmetric:
          value = SymmetricWFOMC(n, r.w, r.wbar);
          break;
        case ServeRef::kSmokers: {
          const NamedWeights& sm = Find(weights, "Sm");
          const NamedWeights& f = Find(weights, "F");
          value = SmokersWFOMC(n, sm.w, sm.wbar, f.w, f.wbar);
          break;
        }
        case ServeRef::kMutual:
          value = MutualWFOMC(n, r.w, r.wbar);
          break;
        case ServeRef::kCovered: {
          const NamedWeights& u = Find(weights, "U");
          value = CoveredWFOMC(n, u.w, u.wbar, r.w, r.wbar);
          break;
        }
      }
      expected.push_back(value.ToString());
    }
    return expected;
  }

  std::uint64_t seed_;
  ServeConfig config_;
  std::size_t offset_ = 0;
  std::unique_ptr<Server> server_;
  serve::ServerStats baseline_;
  std::vector<Line> lines_;
  // Spec orders of the cycles: cycle c uses orders_[c mod size].
  std::vector<std::vector<std::size_t>> orders_;
  std::map<std::string, api::CompiledQuery> compiled_;
  nnf::Circuit::EvalArena arena_;
  AnswerLog<std::string> log_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWarm(std::uint64_t seed) {
  return std::make_unique<ServeWorkload>(seed, kWarmConfig);
}

std::unique_ptr<Workload> MakeServeCold(std::uint64_t seed) {
  return std::make_unique<ServeWorkload>(seed, kColdConfig);
}

}  // namespace swbench
