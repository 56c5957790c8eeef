// The two library workloads: grounded_count (Engine::WFOMC on the
// grounded route) and lifted_sweep (Engine::WFOMCSweep on the lifted
// routes). The untraced operation is the one public call; the traced
// operation drives the same computation as the sequence of public calls
// that call makes, one span per call.
#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/engine.h"
#include "closedforms/closed_forms.h"
#include "cq/conjunctive_query.h"
#include "cq/gamma_evaluator.h"
#include "fo2/cell_algorithm.h"
#include "fo2/fo2_normal_form.h"
#include "fo2/lifted_compiler.h"
#include "grounding/grounded_wfomc.h"
#include "grounding/lineage.h"
#include "grounding/tuple_index.h"
#include "harness.h"
#include "inputs.h"
#include "logic/formula.h"
#include "logic/parser.h"
#include "numeric/combinatorics.h"
#include "prop/tseitin.h"
#include "references.h"
#include "wmc/dpll_counter.h"

namespace swbench {

namespace {

using numeric::BigRational;

double DecimalDigits(const BigRational& value) {
  double digits = static_cast<double>(value.numerator().ToString().size());
  if (!value.IsInteger()) {
    digits += static_cast<double>(value.denominator().ToString().size());
  }
  return digits;
}

std::string ThreadGuard() {
  int threads = ProcessThreadCount();
  if (threads != 1) {
    return "expected a single-threaded process, found " +
           std::to_string(threads) + " threads";
  }
  return "";
}

// ---------------------------------------------------------------- grounded

enum class GroundedRef { kClosedWalk, kTypedTriangle, kCell, kForallExists,
                         kTable1 };

struct GroundedSpec {
  const char* sentence;
  std::uint64_t n;
  api::Method method;  // kAuto for the CQs, kGrounded for forced FO²
  GroundedRef reference;
  int walk_length;     // kClosedWalk only
};

// FO³/FO⁴ conjunctive queries (grounded because no lifted route applies)
// beside FO² sentences forced onto the grounded route. The triangle at
// n=5 and the mutual-edge sentence make most cache lookups hit; the other
// FO² sentences at n=10..12 make thousands of lookups and no hits. Every
// instance runs once per cycle, in a seeded order.
const GroundedSpec kGroundedSpecs[] = {
    {kTriangle, 5, api::Method::kAuto, GroundedRef::kClosedWalk, 3},
    {kTriangle, 4, api::Method::kAuto, GroundedRef::kClosedWalk, 3},
    {kFourCycle, 4, api::Method::kAuto, GroundedRef::kClosedWalk, 4},
    {kTypedTriangle, 3, api::Method::kAuto, GroundedRef::kTypedTriangle, 0},
    {kTypedTriangle, 2, api::Method::kAuto, GroundedRef::kTypedTriangle, 0},
    {"forall x exists y R(x,y)", 12, api::Method::kGrounded,
     GroundedRef::kForallExists, 0},
    {"forall x forall y (U(x) | S(x,y) | T(y))", 10, api::Method::kGrounded,
     GroundedRef::kTable1, 0},
    {"forall x forall y ((Sm(x) & F(x,y)) => Sm(y))", 12,
     api::Method::kGrounded, GroundedRef::kCell, 0},
    {"forall x forall y ((!R(x,x) | V(y)) => (U(y) & U(x)))", 10,
     api::Method::kGrounded, GroundedRef::kCell, 0},
    {"forall x forall y (R(x,y) => R(y,x))", 12, api::Method::kGrounded,
     GroundedRef::kCell, 0},
    {"forall x exists y (R(x,y) & R(y,x))", 6, api::Method::kGrounded,
     GroundedRef::kCell, 0},
};

// Weights (one vector per instance) and lifted sentences come from this
// seed; the run's seed only orders the operations.
constexpr std::uint64_t kCatalogSeed = 2015;

class GroundedCount final : public Workload {
 public:
  explicit GroundedCount(std::uint64_t seed) : seed_(seed) {}

  void Setup() override {
    Rng rng(seed_);
    Rng catalog(kCatalogSeed);
    items_.clear();
    for (const GroundedSpec& spec : kGroundedSpecs) {
      Item item;
      item.spec = &spec;
      logic::Parse(spec.sentence, &item.vocabulary);
      item.weights =
          RandomWeights(&catalog, item.vocabulary, WeightKind::kRational);
      items_.push_back(std::move(item));
    }
    schedule_.resize(items_.size());
    for (std::size_t i = 0; i < schedule_.size(); ++i) schedule_[i] = i;
    std::shuffle(schedule_.begin(), schedule_.end(), rng);
  }

  std::size_t CycleLength() const override { return schedule_.size(); }
  std::size_t CyclesPerRound() const override { return 1; }

  Done Run(std::size_t index, std::size_t, Tracer* tracer) override {
    std::size_t key = schedule_[index];
    const Item& item = items_[key];
    try {
      BigRational value = tracer == nullptr ? Count(item) : Traced(item, tracer);
      log_.Record(key, {std::move(value)});
    } catch (const std::exception& error) {
      log_.Error(std::string(item.spec->sentence) + ": " + error.what());
    }
    return {1, key};
  }

  CheckResult Verify() override {
    CheckResult check = log_.Start();
    // The enumerated count tables the FO³ references are read from; built
    // here, after timing, so that set-up is only the library's share.
    ReferenceTables tables;
    for (const GroundedSpec& spec : kGroundedSpecs) {
      int n = static_cast<int>(spec.n);
      if (spec.reference == GroundedRef::kClosedWalk) {
        tables.AddClosedWalk(n, spec.walk_length);
      } else if (spec.reference == GroundedRef::kTypedTriangle) {
        tables.AddTypedTriangle(n);
      }
    }
    if (!tables.PinnedTotalsHold()) {
      Fail(&check, "reference enumerator disagrees with its pinned total");
    }
    for (const auto& [key, answers] : log_.first()) {
      const Item& item = items_[key];
      std::string label = std::string(item.spec->sentence) + " n=" +
                          std::to_string(item.spec->n);
      try {
        BigRational expected = Reference(item, tables);
        if (answers.front() != expected) {
          log_.FailKey(&check, key,
                       label + ": got " + answers.front().ToString() +
                           ", reference " + expected.ToString());
        }
      } catch (const std::exception& error) {
        log_.FailKey(&check, key,
                     label + ": reference failed: " + error.what());
      }
    }
    return check;
  }

  std::string CheckGuards() override { return ThreadGuard(); }

 private:
  struct Item {
    const GroundedSpec* spec = nullptr;
    logic::Vocabulary vocabulary;  // the sentence's relations, weights (1, 1)
    WeightVector weights;
  };

  // The operation users run: one Engine::WFOMC call.
  BigRational Count(const Item& item) {
    api::Engine engine(Reweighted(item.vocabulary, item.weights));
    logic::Formula sentence = engine.Parse(item.spec->sentence);
    api::Engine::Result result =
        engine.WFOMC(sentence, item.spec->n, item.spec->method);
    if (result.outcome != api::Outcome::kExact) {
      throw std::runtime_error("inexact result");
    }
    if (result.method != api::Method::kGrounded) {
      throw std::runtime_error(std::string("routed to ") +
                               api::ToString(result.method));
    }
    return std::move(result.value);
  }

  // The same computation as the calls Engine::WFOMC makes on the grounded
  // route, each in its own span.
  BigRational Traced(const Item& item, Tracer* tracer) {
    Tracer::Scope op(tracer, "op");
    api::Engine engine(Reweighted(item.vocabulary, item.weights));
    logic::Formula sentence;
    {
      Tracer::Scope span(tracer, "logic.parse");
      sentence = engine.Parse(item.spec->sentence);
    }
    api::Method method = item.spec->method;
    {
      Tracer::Scope span(tracer, "api.route");
      api::Method routed = engine.Route(sentence);
      if (method == api::Method::kAuto) method = routed;
    }
    if (method != api::Method::kGrounded) {
      throw std::runtime_error(std::string("routed to ") +
                               api::ToString(method));
    }
    std::optional<grounding::TupleIndex> index;
    prop::PropFormula lineage;
    {
      Tracer::Scope span(tracer, "grounding.lineage");
      index.emplace(engine.vocabulary(), item.spec->n);
      lineage = grounding::GroundLineage(sentence, *index);
    }
    prop::TseitinResult tseitin;
    {
      Tracer::Scope span(tracer, "prop.tseitin");
      tseitin = prop::TseitinTransform(
          lineage, static_cast<std::uint32_t>(index->TupleCount()));
    }
    wmc::WeightMap weights;
    {
      Tracer::Scope span(tracer, "grounding.weights");
      weights = grounding::SymmetricGroundWeights(*index,
                                                  tseitin.cnf.variable_count);
    }
    tracer->Observe("prop.cnf_clauses",
                    static_cast<double>(tseitin.cnf.clauses.size()));
    BigRational value;
    wmc::DpllCounter::Stats stats;
    {
      Tracer::Scope span(tracer, "wmc.count");
      wmc::DpllCounter counter(std::move(tseitin.cnf), std::move(weights));
      value = counter.Count();
      stats = counter.stats();
    }
    tracer->Observe("wmc.decisions", static_cast<double>(stats.decisions));
    tracer->Observe("wmc.propagations",
                    static_cast<double>(stats.unit_propagations));
    tracer->Observe("wmc.component_splits",
                    static_cast<double>(stats.component_splits));
    tracer->Observe("wmc.cache_lookups",
                    static_cast<double>(stats.cache_lookups));
    tracer->Observe("wmc.cache_bytes", static_cast<double>(stats.cache_bytes));
    tracer->Count("wmc.decisions_total", static_cast<double>(stats.decisions));
    tracer->Count("wmc.cache_lookups_total",
                  static_cast<double>(stats.cache_lookups));
    tracer->Count("wmc.cache_hits_total", static_cast<double>(stats.cache_hits));
    return value;
  }

  static BigRational Reference(const Item& item,
                               const ReferenceTables& tables) {
    const GroundedSpec& spec = *item.spec;
    const WeightVector& weights = item.weights;
    int n = static_cast<int>(spec.n);
    switch (spec.reference) {
      case GroundedRef::kClosedWalk: {
        const NamedWeights& r = Find(weights, "R");
        return tables.closed_walk(n, spec.walk_length).WFOMC(r.w, r.wbar);
      }
      case GroundedRef::kTypedTriangle: {
        const NamedWeights& r = Find(weights, "R");
        const NamedWeights& s = Find(weights, "S");
        const NamedWeights& t = Find(weights, "T");
        return tables.typed_triangle(n).WFOMC(r.w, r.wbar, s.w, s.wbar, t.w,
                                              t.wbar);
      }
      case GroundedRef::kForallExists: {
        const NamedWeights& r = Find(weights, "R");
        return closedforms::ForallExistsWFOMC(spec.n, r.w, r.wbar);
      }
      case GroundedRef::kTable1: {
        const NamedWeights& u = Find(weights, "U");
        const NamedWeights& s = Find(weights, "S");
        const NamedWeights& t = Find(weights, "T");
        return closedforms::Table1WFOMC(spec.n, u.w, u.wbar, s.w, s.wbar, t.w,
                                        t.wbar);
      }
      case GroundedRef::kCell: {
        logic::Vocabulary vocabulary = Reweighted(item.vocabulary, weights);
        logic::Formula sentence = logic::Parse(spec.sentence, &vocabulary);
        return fo2::LiftedWFOMC(sentence, vocabulary, spec.n);
      }
    }
    throw std::logic_error("unknown reference");
  }

  std::uint64_t seed_;
  std::vector<Item> items_;
  std::vector<std::size_t> schedule_;  // item indices, in the seeded order
  AnswerLog<BigRational> log_;
};

// ------------------------------------------------------------------ lifted

// FO² sentences of the library property suites' random shape (a depth-2
// matrix over the atoms on {x, y} of U/1, V/1, R/2 under a random
// two-variable prefix), drawn once with the catalog seed and printed, each
// kept with the largest sweep end N that held a sweep under about 30 ms
// on integer weights; sentences whose whole 1..32 sweep took under 2 ms
// were dropped as trivial.
struct LiftedSpec {
  const char* sentence;
  std::uint64_t n_hi;
};

const LiftedSpec kLiftedSpecs[] = {
    {"forall x. exists y. U(x)", 32},
    {"exists x y. !R(x,y)", 20},
    {"exists x y. ((U(y) => V(y)) | (!U(x) => !R(y,y)))", 8},
    {"forall x y. (V(y) & !R(y,x) | (R(y,x) => U(y)))", 12},
    {"exists x y. ((V(x) | V(y)) & (!U(y) | !U(y)))", 8},
    {"exists x. forall y. (R(y,x) & V(x) | V(y) & R(x,x))", 10},
    {"forall x y. (!R(x,y) & U(x) => !U(y))", 32},
    {"forall x. exists y. (R(x,x) & !R(x,y) & (R(x,x) => R(x,x)))", 20},
    {"exists x. forall y. !U(x)", 20},
    {"forall x y. ((!V(y) => !R(y,y)) => R(y,x) => R(y,y))", 20},
    {"exists x. forall y. (V(y) & R(y,x) & U(y))", 6},
    {"exists x y. ((V(x) => !R(x,x)) | V(x) & U(x))", 6},
    {"exists x. forall y. (R(y,y) & (R(x,y) | !R(x,y)))", 24},
    {"exists x y. (R(y,x) | R(y,x) | !R(y,y) | R(y,x))", 32},
    {"forall x. exists y. !R(x,y)", 32},
    {"exists x y. (V(y) | R(y,y) | (!V(x) => R(x,x)))", 12},
    {"exists x y. (!R(x,x) | !U(y) | (U(y) => U(y)))", 20},
    {"exists x y. (U(x) & !U(y) & !V(y))", 6},
};

// γ-acyclic queries: RandomGammaAcyclicSentence shapes with 2..4 atoms
// (catalog seed), swept over 1..12.
constexpr std::size_t kLiftedCQs = 6;
// Weight vectors per lifted sentence (catalog seed), one per cycle.
constexpr std::size_t kLiftedWeightVectors = 2;
constexpr std::uint64_t kCQSweep = 12;
// Points checked against exhaustive enumeration (at most this many ground
// tuples: n <= 3 for U/V/R) and against the grounded counter (FO²
// sentences at n <= 4, γ-acyclic queries at n <= 2), neither of which
// shares code with the lifted routes.
constexpr std::uint64_t kExhaustiveTuples = 15;
constexpr std::uint64_t kGroundedCheckFO2N = 4;
constexpr std::uint64_t kGroundedCheckCQN = 2;

class LiftedSweep final : public Workload {
 public:
  explicit LiftedSweep(std::uint64_t seed) : seed_(seed) {}

  void Setup() override {
    Rng rng(seed_);
    Rng catalog(kCatalogSeed);
    offset_ = rng() % kLiftedWeightVectors;
    items_.clear();
    auto add = [&](std::string sentence, std::uint64_t n_hi, bool fo2) {
      Item item;
      item.sentence = std::move(sentence);
      item.n_hi = n_hi;
      logic::Parse(item.sentence, &item.vocabulary);
      for (std::size_t i = 0; i < kLiftedWeightVectors; ++i) {
        logic::Vocabulary weighted = item.vocabulary;
        for (logic::RelationId id = 0; id < weighted.size(); ++id) {
          BigRational w = fo2 ? RandomIntegerWeight(&catalog, true)
                              : RandomRationalWeight(&catalog);
          weighted.SetWeights(id, std::move(w),
                              fo2 ? RandomIntegerWeight(&catalog, true)
                                  : RandomRationalWeight(&catalog));
        }
        item.weighted.push_back(std::move(weighted));
      }
      items_.push_back(std::move(item));
    };
    for (const LiftedSpec& spec : kLiftedSpecs) add(spec.sentence, spec.n_hi, true);
    Rng shapes(kCatalogSeed);
    for (std::size_t i = 0; i < kLiftedCQs; ++i) {
      int atoms = 2 + static_cast<int>(shapes() % 3);
      add(RandomGammaAcyclicSentence(&shapes, atoms), kCQSweep, false);
    }
    schedule_.resize(items_.size());
    for (std::size_t i = 0; i < schedule_.size(); ++i) schedule_[i] = i;
    std::shuffle(schedule_.begin(), schedule_.end(), rng);
  }

  std::size_t CycleLength() const override { return schedule_.size(); }
  std::size_t CyclesPerRound() const override { return kLiftedWeightVectors; }

  Done Run(std::size_t index, std::size_t cycle, Tracer* tracer) override {
    std::size_t item_index = schedule_[index];
    const Item& item = items_[item_index];
    std::size_t w = (cycle + offset_) % kLiftedWeightVectors;
    std::size_t key = item_index * kLiftedWeightVectors + w;
    try {
      const logic::Vocabulary& vocabulary = item.weighted[w];
      std::vector<BigRational> answers =
          tracer == nullptr ? Sweep(item, vocabulary)
                            : Traced(item, vocabulary, tracer);
      if (tracer != nullptr) {
        for (const BigRational& answer : answers) {
          tracer->Observe("numeric.answer_digits", DecimalDigits(answer));
        }
      }
      log_.Record(key, std::move(answers));
    } catch (const std::exception& error) {
      log_.Error(item.sentence + ": " + error.what());
    }
    return {item.n_hi, key};
  }

  CheckResult Verify() override {
    CheckResult check = log_.Start();
    for (const auto& [key, answers] : log_.first()) {
      const Item& item = items_[key / kLiftedWeightVectors];
      try {
        std::vector<BigRational> expected =
            References(item, item.weighted[key % kLiftedWeightVectors]);
        for (std::size_t i = 0; i < expected.size(); ++i) {
          if (i >= answers.size() || answers[i] != expected[i]) {
            log_.FailKey(&check, key,
                         item.sentence + " n=" + std::to_string(i + 1) +
                             ": answer differs from the reference");
            break;
          }
        }
      } catch (const std::exception& error) {
        log_.FailKey(&check, key,
                     item.sentence + ": reference failed: " + error.what());
      }
    }
    return check;
  }

  std::string CheckGuards() override { return ThreadGuard(); }

 private:
  struct Item {
    std::string sentence;
    std::uint64_t n_hi = 1;
    logic::Vocabulary vocabulary;          // the sentence's relations
    std::vector<logic::Vocabulary> weighted;  // one per weight vector
  };

  // The operation users run: one Engine::WFOMCSweep over 1..N.
  std::vector<BigRational> Sweep(const Item& item,
                                 const logic::Vocabulary& vocabulary) {
    api::Engine engine(vocabulary);
    logic::Formula sentence = engine.Parse(item.sentence);
    api::Engine::SweepResult sweep = engine.WFOMCSweep(sentence, 1, item.n_hi);
    if (sweep.method == api::Method::kGrounded) {
      throw std::runtime_error("routed to the grounded counter");
    }
    std::vector<BigRational> answers;
    answers.reserve(sweep.points.size());
    for (api::Engine::SweepPoint& point : sweep.points) {
      answers.push_back(std::move(point.value));
    }
    return answers;
  }

  // The calls WFOMCSweep makes on its lifted routes, each in a span.
  std::vector<BigRational> Traced(const Item& item,
                                  const logic::Vocabulary& vocabulary,
                                  Tracer* tracer) {
    Tracer::Scope op(tracer, "op");
    api::Engine engine(vocabulary);
    logic::Formula sentence;
    {
      Tracer::Scope span(tracer, "logic.parse");
      sentence = engine.Parse(item.sentence);
    }
    api::Method method;
    {
      Tracer::Scope span(tracer, "api.route");
      method = engine.Route(sentence);
    }
    std::vector<BigRational> answers;
    if (method == api::Method::kLiftedFO2) {
      std::optional<fo2::UniversalForm> form;
      {
        Tracer::Scope span(tracer, "fo2.normal_form");
        form = fo2::ToUniversalForm(sentence, engine.vocabulary());
      }
      numeric::BinomialTable binomials;
      fo2::CellStats stats;
      for (std::uint64_t n = 1; n <= item.n_hi; ++n) {
        Tracer::Scope span(tracer, "fo2.cell");
        answers.push_back(fo2::CellAlgorithmWFOMC(*form, n, &binomials, &stats));
      }
      tracer->Observe("fo2.cells", static_cast<double>(stats.cells));
      tracer->Observe("fo2.composition_terms",
                      static_cast<double>(stats.composition_terms));
    } else if (method == api::Method::kGammaAcyclic) {
      auto [query, weights] = ExtractQuery(sentence, engine.vocabulary());
      for (std::uint64_t n = 1; n <= item.n_hi; ++n) {
        Tracer::Scope span(tracer, "cq.gamma");
        answers.push_back(cq::GammaAcyclicWFOMC(query, n, weights));
      }
    } else {
      throw std::runtime_error("routed to the grounded counter");
    }
    return answers;
  }

  using CQWeights =
      std::map<std::string, std::pair<BigRational, BigRational>>;

  // ∃x⃗ (A_1 ∧ .. ∧ A_k) as a conjunctive query plus its relations' weights.
  static std::pair<cq::ConjunctiveQuery, CQWeights> ExtractQuery(
      const logic::Formula& sentence, const logic::Vocabulary& vocabulary) {
    logic::Formula body = sentence;
    while (body->kind() == logic::FormulaKind::kExists) body = body->child();
    std::vector<logic::Formula> atoms;
    if (body->kind() == logic::FormulaKind::kAnd) {
      atoms = body->children();
    } else {
      atoms.push_back(body);
    }
    cq::ConjunctiveQuery query;
    CQWeights weights;
    for (const logic::Formula& atom : atoms) {
      std::vector<std::string> variables;
      for (const logic::Term& term : atom->arguments()) {
        variables.push_back(term.name);
      }
      const std::string& name = vocabulary.name(atom->relation());
      query.AddAtom(name, std::move(variables));
      weights[name] = {vocabulary.positive_weight(atom->relation()),
                       vocabulary.negative_weight(atom->relation())};
    }
    return {std::move(query), std::move(weights)};
  }

  // Every point against the other lifted evaluator — the compiled lifted
  // circuit for FO², the Theorem 3.6 evaluator called directly for
  // γ-acyclic queries — and the small points also against exhaustive
  // enumeration and the grounded counter, which share no code with
  // either lifted route.
  std::vector<BigRational> References(const Item& item,
                                      logic::Vocabulary vocabulary) const {
    logic::Formula sentence = logic::Parse(item.sentence, &vocabulary);
    api::Engine router(vocabulary);
    api::Method method = router.Route(sentence);
    std::vector<BigRational> expected;
    std::optional<nnf::LiftedCircuit> circuit;
    std::optional<std::pair<cq::ConjunctiveQuery, CQWeights>> query;
    if (method == api::Method::kGammaAcyclic) {
      query = ExtractQuery(sentence, vocabulary);
    } else {
      circuit = fo2::CompileLifted(sentence, vocabulary);
    }
    const std::uint64_t grounded_check_n =
        query.has_value() ? kGroundedCheckCQN : kGroundedCheckFO2N;
    for (std::uint64_t n = 1; n <= item.n_hi; ++n) {
      BigRational value = query.has_value()
                              ? cq::GammaAcyclicWFOMC(query->first, n,
                                                      query->second)
                              : circuit->Evaluate(n);
      if (vocabulary.GroundTupleCount(n) <= kExhaustiveTuples &&
          grounding::ExhaustiveWFOMC(sentence, vocabulary, n) != value) {
        throw std::runtime_error("references disagree: exhaustive at n=" +
                                 std::to_string(n) + " for " + item.sentence);
      }
      if (n <= grounded_check_n &&
          grounding::GroundedWFOMC(sentence, vocabulary, n) != value) {
        throw std::runtime_error("references disagree: grounded at n=" +
                                 std::to_string(n) + " for " + item.sentence);
      }
      expected.push_back(std::move(value));
    }
    return expected;
  }

  std::uint64_t seed_;
  std::size_t offset_ = 0;
  std::vector<Item> items_;
  std::vector<std::size_t> schedule_;
  AnswerLog<BigRational> log_;
};

}  // namespace

std::unique_ptr<Workload> MakeGroundedCount(std::uint64_t seed) {
  return std::make_unique<GroundedCount>(seed);
}

std::unique_ptr<Workload> MakeLiftedSweep(std::uint64_t seed) {
  return std::make_unique<LiftedSweep>(seed);
}

}  // namespace swbench
