#include "serve/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <utility>

#include "io/diagnostics.h"
#include "io/model_format.h"
#include "io/runner.h"
#include "logic/printer.h"
#include "runtime/budget.h"

namespace swfomc::serve {

namespace {

using io::AddOutcomeFields;
using io::JsonValue;
using io::SecondsSince;
using numeric::BigRational;

/// Per-entry bookkeeping beyond CompiledQuery::MemoryBytes: the key
/// string, the list node, and the index slot (same estimation style as
/// ComponentCache::kEntryOverheadBytes).
constexpr std::size_t kCacheEntryOverheadBytes =
    sizeof(std::string) + sizeof(void*) * 4 + sizeof(std::size_t) * 2;

/// JSON numbers arrive as verbatim decimal strings; budgets and domain
/// sizes must be plain non-negative integers.
std::optional<std::uint64_t> Uint64FromJson(const JsonValue& value) {
  if (value.kind != JsonValue::Kind::kNumber &&
      value.kind != JsonValue::Kind::kString) {
    return std::nullopt;
  }
  std::uint64_t out = 0;
  if (io::ParseDecimal(value.string, &out) != io::DecimalError::kNone) {
    return std::nullopt;
  }
  return out;
}

/// Weights accept JSON numbers ("2") and rational strings ("1/2") —
/// exact values only, the same grammar as .model weight lines.
BigRational RationalFromJson(const JsonValue& value) {
  if (value.kind != JsonValue::Kind::kNumber &&
      value.kind != JsonValue::Kind::kString) {
    throw std::invalid_argument(
        "weight must be a number or a rational string like \"1/2\"");
  }
  return BigRational::FromString(value.string);
}

const JsonValue* FindMember(const JsonValue& object, const std::string& key) {
  if (object.kind != JsonValue::Kind::kObject) return nullptr;
  for (const auto& [name, value] : object.object) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue MakeError(const JsonValue* id, const std::string& message) {
  JsonValue json = JsonValue::MakeObject();
  if (id != nullptr) json.Add("id", *id);
  json.Add("status", JsonValue::MakeString("error"));
  json.Add("error", JsonValue::MakeString(message));
  return json;
}

/// The reply to "quit" and "shutdown".
JsonValue MakeBye(const JsonValue* id) {
  JsonValue json = JsonValue::MakeObject();
  if (id != nullptr) json.Add("id", *id);
  json.Add("status", JsonValue::MakeString("ok"));
  json.Add("bye", JsonValue::MakeBool(true));
  return json;
}

/// One governed direct count (the compile-aborted fallback and the
/// "direct" mode): a fresh engine and a fresh budget per weight vector,
/// so every vector gets the full envelope and certified bounds where the
/// search cannot finish.
JsonValue DirectResult(const logic::Vocabulary& base_vocabulary,
                       const logic::Formula& sentence,
                       std::uint64_t domain_size,
                       const std::vector<api::RelationWeights>& reweights,
                       api::Method method, const runtime::Limits& limits,
                       obs::MetricsRegistry* metrics, obs::TraceLog* trace) {
  logic::Vocabulary vocabulary = base_vocabulary;
  for (const api::RelationWeights& weights : reweights) {
    // Parsing validated the names; Find cannot miss here.
    vocabulary.SetWeights(*vocabulary.Find(weights.relation),
                          weights.positive, weights.negative);
  }
  api::Engine::Options engine_options;
  engine_options.metrics = metrics;
  engine_options.trace = trace;
  api::Engine engine(std::move(vocabulary), engine_options);
  runtime::Budget budget;
  api::QueryOptions query;
  query.budget = limits.Arm(&budget);
  api::Engine::Result result =
      engine.WFOMC(sentence, domain_size, method, query);
  JsonValue entry = JsonValue::MakeObject();
  switch (result.outcome) {
    case api::Outcome::kExact:
      entry.Add("wfomc", JsonValue::MakeString(result.value.ToString()));
      break;
    case api::Outcome::kBounds:
      entry.Add("lower",
                JsonValue::MakeString(result.bounds->lower.ToString()));
      entry.Add("upper",
                JsonValue::MakeString(result.bounds->upper.ToString()));
      break;
    case api::Outcome::kAborted:
      break;
  }
  if (result.outcome != api::Outcome::kExact) {
    AddOutcomeFields(&entry, result.outcome, result.stop_reason);
  }
  return entry;
}

/// Blocking-I/O streambuf over a connected socket, enough for the
/// line-oriented protocol: buffered reads, writes flushed per response.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }

 protected:
  int_type underflow() override {
    ssize_t n = ::read(fd_, in_, sizeof(in_));
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }

  int_type overflow(int_type ch) override {
    if (!Flush()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return Flush() ? 0 : -1; }

 private:
  bool Flush() {
    const char* data = pbase();
    std::size_t pending = static_cast<std::size_t>(pptr() - pbase());
    while (pending > 0) {
      ssize_t n = ::write(fd_, data, pending);
      if (n <= 0) return false;
      data += n;
      pending -= static_cast<std::size_t>(n);
    }
    setp(out_, out_ + sizeof(out_));
    return true;
  }

  int fd_;
  char in_[4096];
  char out_[4096];
};

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  m_.requests = registry_.GetCounter("swfomc_serve_requests_total",
                                     "Requests handled (ok or error)");
  m_.errors = registry_.GetCounter("swfomc_serve_errors_total",
                                   "Requests answered with status error");
  m_.cache_hits = registry_.GetCounter(
      "swfomc_serve_cache_hits_total",
      "Queries answered from a cached compiled circuit");
  m_.cache_misses = registry_.GetCounter("swfomc_serve_cache_misses_total",
                                         "Circuit-cache lookup misses");
  m_.evictions = registry_.GetCounter("swfomc_serve_cache_evictions_total",
                                      "Circuits evicted from the LRU");
  m_.evicted_bytes =
      registry_.GetCounter("swfomc_serve_cache_evicted_bytes_total",
                           "Bytes accounted to evicted circuits");
  m_.circuits = registry_.GetGauge("swfomc_serve_cache_circuits",
                                   "Circuits resident in the LRU");
  m_.circuit_bytes = registry_.GetGauge("swfomc_serve_cache_bytes",
                                        "Bytes resident in the circuit LRU");
  m_.circuit_bytes_peak =
      registry_.GetGauge("swfomc_serve_cache_bytes_peak",
                         "High-water mark of resident circuit bytes");
  m_.inflight = registry_.GetGauge("swfomc_serve_inflight",
                                   "Query requests currently executing");
  m_.warm_usec = registry_.GetHistogram(
      "swfomc_serve_request_usec_warm",
      "Microseconds per query served from a cached circuit");
  m_.cold_usec = registry_.GetHistogram(
      "swfomc_serve_request_usec_cold",
      "Microseconds per query that compiled or counted directly");
  m_.batch_size = registry_.GetHistogram(
      "swfomc_serve_batch_size", "Weight vectors per query request");

  options_.num_threads =
      runtime::ThreadPool::ResolveThreadCount(options_.num_threads);
  pool_ = std::make_unique<runtime::ThreadPool>(options_.num_threads);
}

Server::~Server() = default;

Server::Reply Server::HandleLine(std::string_view line) {
  Reply reply;
  if (line.size() > options_.max_request_bytes) {
    m_.requests->Add();
    m_.errors->Add();
    reply.json = MakeError(nullptr,
                           "request exceeds " +
                               std::to_string(options_.max_request_bytes) +
                               " bytes");
    return reply;
  }
  JsonValue request;
  try {
    request = io::ParseJson(line, "<request>");
  } catch (const io::ParseError& error) {
    m_.requests->Add();
    m_.errors->Add();
    reply.json = MakeError(nullptr, error.what());
    return reply;
  }
  const JsonValue* cmd = FindMember(request, "cmd");
  if (cmd != nullptr && cmd->kind == JsonValue::Kind::kString &&
      (cmd->string == "quit" || cmd->string == "shutdown")) {
    if (cmd->string == "shutdown") shutdown_requested_ = true;
    reply.json = MakeBye(FindMember(request, "id"));
    reply.quit = true;
    return reply;
  }
  reply.json = HandleRequest(request);
  return reply;
}

io::JsonValue Server::HandleRequest(const io::JsonValue& request) {
  const JsonValue* id = FindMember(request, "id");
  auto finish = [&](JsonValue json, bool is_error) {
    m_.requests->Add();
    if (is_error) m_.errors->Add();
    return json;
  };
  if (request.kind != JsonValue::Kind::kObject) {
    return finish(MakeError(nullptr, "request must be a JSON object"), true);
  }
  std::string cmd = "query";
  if (const JsonValue* member = FindMember(request, "cmd")) {
    if (member->kind != JsonValue::Kind::kString) {
      return finish(MakeError(id, "\"cmd\" must be a string"), true);
    }
    cmd = member->string;
  }
  if (cmd == "stats") return finish(HandleStats(id), false);
  if (cmd == "metrics") return finish(HandleMetrics(id), false);
  if (cmd == "quit" || cmd == "shutdown") return finish(MakeBye(id), false);
  if (cmd != "query") {
    return finish(MakeError(id, "unknown command '" + cmd + "'"), true);
  }
  struct InflightGuard {
    obs::Gauge* gauge;
    InflightGuard(obs::Gauge* g) : gauge(g) { gauge->Add(1); }
    ~InflightGuard() { gauge->Sub(1); }
  } inflight{m_.inflight};
  JsonValue response = HandleQuery(request);
  bool is_error = false;
  if (const JsonValue* status = FindMember(response, "status")) {
    is_error = status->string == "error";
  }
  return finish(std::move(response), is_error);
}

io::JsonValue Server::HandleQuery(const io::JsonValue& request) {
  auto start = std::chrono::steady_clock::now();
  const JsonValue* id = FindMember(request, "id");

  // Latency lands in the warm histogram only when the whole request was
  // answered from a cached circuit; compiles, direct counts, and error
  // replies are all "cold". Recorded on every exit path.
  struct LatencyGuard {
    Server* self;
    std::chrono::steady_clock::time_point start;
    bool warm = false;
    ~LatencyGuard() {
      auto usec = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      (warm ? self->m_.warm_usec : self->m_.cold_usec)
          ->Record(static_cast<std::uint64_t>(usec));
    }
  } latency{this, start};

  obs::TraceLog::Span span;
  if (options_.trace != nullptr) {
    std::uint64_t query_id = options_.trace->NextQueryId();
    if (options_.trace->SampledQuery(query_id)) {
      span = options_.trace->BeginSpan("serve_request");
      span.Num("query", query_id);
    }
  }

  const JsonValue* sentence_member = FindMember(request, "sentence");
  if (sentence_member == nullptr ||
      sentence_member->kind != JsonValue::Kind::kString) {
    return MakeError(id, "missing required string field \"sentence\"");
  }
  const JsonValue* domain_member = FindMember(request, "domain");
  if (domain_member == nullptr) {
    return MakeError(id, "missing required field \"domain\"");
  }
  std::optional<std::uint64_t> domain = Uint64FromJson(*domain_member);
  if (!domain.has_value()) {
    return MakeError(id, "\"domain\" must be a non-negative integer");
  }

  // The request's own limits override the server defaults field by field.
  runtime::Limits limits = options_.limits;
  struct BudgetField {
    const char* name;
    std::optional<std::uint64_t>* slot;
  };
  const BudgetField budget_fields[] = {
      {"budget_ms", &limits.budget_ms},
      {"max_decisions", &limits.max_decisions},
      {"max_memory_bytes", &limits.max_memory_bytes},
  };
  for (const BudgetField& field : budget_fields) {
    if (const JsonValue* member = FindMember(request, field.name)) {
      std::optional<std::uint64_t> value = Uint64FromJson(*member);
      if (!value.has_value()) {
        return MakeError(id, std::string("\"") + field.name +
                                 "\" must be a non-negative integer");
      }
      *field.slot = value;
    }
  }

  std::string mode = "compile";
  if (const JsonValue* member = FindMember(request, "mode")) {
    if (member->kind != JsonValue::Kind::kString ||
        (member->string != "compile" && member->string != "direct")) {
      return MakeError(id, "\"mode\" must be \"compile\" or \"direct\"");
    }
    mode = member->string;
  }
  api::Method method = api::Method::kAuto;
  if (const JsonValue* member = FindMember(request, "method")) {
    std::optional<api::Method> parsed;
    if (member->kind == JsonValue::Kind::kString) {
      parsed = io::ParseMethodName(member->string);
    }
    if (!parsed.has_value()) {
      return MakeError(id, "unknown method");
    }
    if (mode == "compile" && *parsed != api::Method::kAuto) {
      return MakeError(
          id, "\"method\" only applies to mode \"direct\" (compilation "
              "always traces the grounded search)");
    }
    method = *parsed;
  }

  // Parse the sentence into a fresh vocabulary (every relation defaults
  // to weights (1, 1); the request's weight vectors reweight from there).
  api::Engine parser{logic::Vocabulary{}};
  logic::Formula sentence;
  try {
    sentence = parser.Parse(sentence_member->string);
  } catch (const std::exception& error) {
    return MakeError(id, std::string("bad sentence: ") + error.what());
  }
  const logic::Vocabulary& vocabulary = parser.vocabulary();
  std::string canonical = logic::ToString(sentence, vocabulary);

  // Weight vectors: absent -> one all-default vector; a single object is
  // a batch of one. Per-vector problems become per-result errors.
  std::vector<WeightVector> vectors;
  const JsonValue* weights_member = FindMember(request, "weights");
  if (weights_member == nullptr) {
    vectors.emplace_back();
  } else if (weights_member->kind == JsonValue::Kind::kObject) {
    vectors.resize(1);
  } else if (weights_member->kind == JsonValue::Kind::kArray) {
    vectors.resize(weights_member->array.size());
  } else {
    return MakeError(id,
                     "\"weights\" must be an object or an array of objects");
  }
  auto parse_vector = [&](const JsonValue& object, WeightVector* out) {
    if (object.kind != JsonValue::Kind::kObject) {
      out->error = "weight vector must be an object";
      return;
    }
    for (const auto& [name, value] : object.object) {
      if (!vocabulary.Find(name).has_value()) {
        out->error = "unknown relation '" + name + "'";
        return;
      }
      if (value.kind != JsonValue::Kind::kArray || value.array.size() != 2) {
        out->error = "weights for '" + name + "' must be [w, wbar]";
        return;
      }
      api::RelationWeights reweight;
      reweight.relation = name;
      try {
        reweight.positive = RationalFromJson(value.array[0]);
        reweight.negative = RationalFromJson(value.array[1]);
      } catch (const std::exception& error) {
        out->error = "bad weight for '" + name + "': " + error.what();
        return;
      }
      out->reweights.push_back(std::move(reweight));
    }
  };
  if (weights_member != nullptr) {
    if (weights_member->kind == JsonValue::Kind::kObject) {
      parse_vector(*weights_member, &vectors[0]);
    } else {
      for (std::size_t i = 0; i < vectors.size(); ++i) {
        parse_vector(weights_member->array[i], &vectors[i]);
      }
    }
  }
  if (vectors.empty()) {
    return MakeError(id, "\"weights\" must contain at least one vector");
  }
  m_.batch_size->Record(vectors.size());
  span.Str("mode", mode).Num("n", *domain);
  span.Num("batch", static_cast<std::uint64_t>(vectors.size()));

  JsonValue response = JsonValue::MakeObject();
  if (id != nullptr) response.Add("id", *id);
  response.Add("status", JsonValue::MakeString("ok"));
  response.Add("sentence", JsonValue::MakeString(canonical));
  response.Add("n", JsonValue::MakeNumber(*domain));
  response.Add("mode", JsonValue::MakeString(mode));

  std::vector<JsonValue> results(vectors.size());
  auto direct_all = [&]() {
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      if (!vectors[i].error.empty()) {
        results[i] = MakeError(nullptr, vectors[i].error);
        continue;
      }
      try {
        results[i] =
            DirectResult(vocabulary, sentence, *domain, vectors[i].reweights,
                         method, limits, &registry_, options_.trace);
      } catch (const std::exception& error) {
        results[i] = MakeError(nullptr, error.what());
      }
    }
  };

  if (mode == "direct") {
    direct_all();
  } else {
    // Liftable sentences cache under the canonical sentence alone: one
    // lifted circuit answers every domain size, so requests at different
    // n share the entry. Grounded circuits are fixed-n and key on
    // (sentence, n). A lifted circuit is only valid for n >= 1; a
    // domain-0 request compiles grounded.
    api::Engine router{logic::Vocabulary(vocabulary)};
    bool lifted = *domain >= 1 && router.CanCompileLifted(sentence);
    std::string key = canonical;
    if (!lifted) {
      key.push_back('\x1f');
      key += std::to_string(*domain);
    }

    std::shared_ptr<const api::CompiledQuery> query = CacheLookup(key);
    bool cached = query != nullptr;
    latency.warm = cached;
    span.Bool("cached", cached);
    if (!cached) {
      api::Engine::Options compiler_options;
      compiler_options.metrics = &registry_;
      compiler_options.trace = options_.trace;
      api::Engine compiler{logic::Vocabulary(vocabulary), compiler_options};
      api::CompileOptions compile_options;
      compile_options.domain_size = *domain;
      compile_options.method =
          lifted ? api::Method::kLiftedFO2 : api::Method::kGrounded;
      runtime::Budget budget;
      api::QueryOptions query_options;
      query_options.budget = limits.Arm(&budget);
      auto compile_start = std::chrono::steady_clock::now();
      api::CompileResult compiled;
      try {
        compiled = compiler.Compile(sentence, compile_options, query_options);
      } catch (const std::exception& error) {
        return MakeError(id, std::string("compile failed: ") + error.what());
      }
      response.Add("compile_seconds",
                   JsonValue::MakeNumber(SecondsSince(compile_start)));
      if (compiled.outcome != api::Outcome::kExact) {
        // The budget stopped the trace; the partial circuit is unusable.
        // Answer each vector with a governed direct count instead — the
        // request degrades to certified bounds, it does not fail.
        response.Add("compile_outcome",
                     JsonValue::MakeString(api::ToString(compiled.outcome)));
        if (compiled.stop_reason != runtime::StopReason::kNone) {
          response.Add(
              "stop_reason",
              JsonValue::MakeString(runtime::ToString(compiled.stop_reason)));
        }
        direct_all();
      } else {
        query = std::make_shared<const api::CompiledQuery>(
            std::move(*compiled.compiled));
        CacheInsert(key, query);
      }
    }
    response.Add("cached", JsonValue::MakeBool(cached));
    // Null only when a stopped compile degraded to direct counts above.
    if (query != nullptr) {
      response.Add("kind",
                   JsonValue::MakeString(api::ToString(query->kind())));

      auto evaluate_one = [&](std::size_t i) {
        if (!vectors[i].error.empty()) {
          results[i] = MakeError(nullptr, vectors[i].error);
          return;
        }
        std::unique_ptr<nnf::Circuit::EvalArena> arena = AcquireArena();
        try {
          BigRational value =
              query->Evaluate(*domain, vectors[i].reweights, arena.get());
          JsonValue entry = JsonValue::MakeObject();
          entry.Add("wfomc", JsonValue::MakeString(value.ToString()));
          results[i] = std::move(entry);
        } catch (const std::exception& error) {
          results[i] = MakeError(nullptr, error.what());
        }
        ReleaseArena(std::move(arena));
      };
      pool_->ParallelFor(vectors.size(), evaluate_one);
    }
  }

  JsonValue results_json = JsonValue::MakeArray();
  for (JsonValue& entry : results) {
    results_json.array.push_back(std::move(entry));
  }
  response.Add("results", std::move(results_json));
  response.Add("elapsed_seconds", JsonValue::MakeNumber(SecondsSince(start)));
  return response;
}

io::JsonValue Server::HandleStats(const io::JsonValue* id) const {
  ServerStats stats = Stats();
  JsonValue json = JsonValue::MakeObject();
  if (id != nullptr) json.Add("id", *id);
  json.Add("status", JsonValue::MakeString("ok"));
  json.Add("requests", JsonValue::MakeNumber(stats.requests));
  json.Add("errors", JsonValue::MakeNumber(stats.errors));
  json.Add("cache_hits", JsonValue::MakeNumber(stats.cache_hits));
  json.Add("cache_misses", JsonValue::MakeNumber(stats.cache_misses));
  json.Add("evictions", JsonValue::MakeNumber(stats.evictions));
  json.Add("evicted_bytes", JsonValue::MakeNumber(stats.evicted_bytes));
  json.Add("circuits", JsonValue::MakeNumber(
                           static_cast<std::uint64_t>(stats.circuits)));
  json.Add("circuit_bytes", JsonValue::MakeNumber(static_cast<std::uint64_t>(
                                stats.circuit_bytes)));
  json.Add("circuit_bytes_peak",
           JsonValue::MakeNumber(
               static_cast<std::uint64_t>(stats.circuit_bytes_peak)));
  return json;
}

io::JsonValue Server::HandleMetrics(const io::JsonValue* id) const {
  // Refresh the cache-level gauges so a scrape on an idle server still
  // reflects the live LRU (they are otherwise updated per cache
  // operation).
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    m_.circuits->Set(static_cast<std::int64_t>(lru_.size()));
    m_.circuit_bytes->Set(static_cast<std::int64_t>(cache_bytes_));
    m_.circuit_bytes_peak->Set(static_cast<std::int64_t>(cache_bytes_peak_));
  }
  JsonValue json = JsonValue::MakeObject();
  if (id != nullptr) json.Add("id", *id);
  json.Add("status", JsonValue::MakeString("ok"));
  json.Add("exposition", JsonValue::MakeString(registry_.TextExposition()));
  return json;
}

ServerStats Server::Stats() const {
  ServerStats stats;
  stats.requests = m_.requests->Value();
  stats.errors = m_.errors->Value();
  stats.cache_hits = m_.cache_hits->Value();
  stats.cache_misses = m_.cache_misses->Value();
  stats.evictions = m_.evictions->Value();
  stats.evicted_bytes = m_.evicted_bytes->Value();
  std::lock_guard<std::mutex> lock(cache_mutex_);
  stats.circuits = lru_.size();
  stats.circuit_bytes = cache_bytes_;
  stats.circuit_bytes_peak = cache_bytes_peak_;
  return stats;
}

std::shared_ptr<const api::CompiledQuery> Server::CacheLookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    m_.cache_misses->Add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  m_.cache_hits->Add();
  return it->second->query;
}

void Server::CacheInsert(const std::string& key,
                         std::shared_ptr<const api::CompiledQuery> query) {
  std::size_t bytes =
      query->MemoryBytes() + key.capacity() + kCacheEntryOverheadBytes;
  if (options_.max_circuits == 0 || bytes > options_.max_circuit_bytes) {
    // Serving an oversized circuit is fine; pinning the whole cache to it
    // is not (ComponentCache applies the same rule to giant entries).
    return;
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // A concurrent request compiled the same key first; keep the fresher
    // entry and refresh its LRU position.
    cache_bytes_ -= it->second->bytes;
    it->second->query = std::move(query);
    it->second->bytes = bytes;
    cache_bytes_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(CacheEntry{key, std::move(query), bytes});
    index_[key] = lru_.begin();
    cache_bytes_ += bytes;
  }
  if (cache_bytes_ > cache_bytes_peak_) cache_bytes_peak_ = cache_bytes_;
  while (lru_.size() > options_.max_circuits ||
         (lru_.size() > 1 && cache_bytes_ > options_.max_circuit_bytes)) {
    CacheEntry& victim = lru_.back();
    std::size_t victim_bytes = victim.bytes;
    cache_bytes_ -= victim_bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    m_.evictions->Add();
    m_.evicted_bytes->Add(victim_bytes);
  }
  m_.circuits->Set(static_cast<std::int64_t>(lru_.size()));
  m_.circuit_bytes->Set(static_cast<std::int64_t>(cache_bytes_));
  m_.circuit_bytes_peak->Set(static_cast<std::int64_t>(cache_bytes_peak_));
}

std::unique_ptr<nnf::Circuit::EvalArena> Server::AcquireArena() {
  std::lock_guard<std::mutex> lock(arena_mutex_);
  if (free_arenas_.empty()) {
    return std::make_unique<nnf::Circuit::EvalArena>();
  }
  std::unique_ptr<nnf::Circuit::EvalArena> arena =
      std::move(free_arenas_.back());
  free_arenas_.pop_back();
  return arena;
}

void Server::ReleaseArena(std::unique_ptr<nnf::Circuit::EvalArena> arena) {
  std::lock_guard<std::mutex> lock(arena_mutex_);
  free_arenas_.push_back(std::move(arena));
}

int Server::ServeStream(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    bool blank = true;
    for (char c : line) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    Reply reply = HandleLine(line);
    out << reply.json.Dump(-1) << "\n" << std::flush;
    if (reply.quit) break;
  }
  return 0;
}

int Server::ServeTcp(std::uint16_t port,
                     const std::function<void(std::uint16_t)>& on_listening) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) throw std::runtime_error("serve: cannot create socket");
  int reuse = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local clients only
  address.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listener, 8) != 0) {
    ::close(listener);
    throw std::runtime_error("serve: cannot listen on port " +
                             std::to_string(port));
  }
  socklen_t address_size = sizeof(address);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&address),
                &address_size);
  if (on_listening) on_listening(ntohs(address.sin_port));

  while (!shutdown_requested_) {
    int connection = ::accept(listener, nullptr, nullptr);
    if (connection < 0) break;
    FdStreamBuf buffer(connection);
    std::istream in(&buffer);
    std::ostream out(&buffer);
    ServeStream(in, out);
    ::close(connection);
  }
  ::close(listener);
  return 0;
}

}  // namespace swfomc::serve
