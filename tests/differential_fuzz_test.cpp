// Cross-engine differential fuzzing at the Engine level: the paper's
// routing invariant says the lifted FO² cell algorithm, the γ-acyclic
// evaluator, and the grounded DPLL counter compute the *same* WFOMC on
// their shared fragments, so random instances of those fragments are an
// oracle-free test — any disagreement is a bug in one of the engines.
//
// Seeds are deterministic (committed base seed 1) but rotatable: CI sets
// SWFOMC_FUZZ_SEED to the run id so every pipeline run explores a fresh
// slice of instance space, and the base seed is logged on stdout and in
// the test XML so failures replay exactly.
//
// This suite is tier-1: instance counts and domain sizes are chosen to
// keep it in the low seconds. The cross_engine_test sweep covers
// the same FO² family against exhaustive enumeration and Skolemization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "api/engine.h"
#include "cq/acyclicity.h"
#include "cq/hypergraph.h"
#include "grounding/grounded_wfomc.h"
#include "logic/printer.h"
#include "logic/transform.h"
#include "nnf/circuit.h"
#include "nnf/circuit_builder.h"
#include "test_util.h"
#include "wmc/brute_force.h"
#include "wmc/dpll_counter.h"

namespace swfomc {
namespace {

using api::Engine;
using api::Method;
using numeric::BigRational;
using testutil::FuzzBaseSeed;
using testutil::MakeRandomFO2Sentence;
using testutil::MakeRandomGammaAcyclicSentence;
using testutil::RandomSentence;

constexpr std::uint64_t kDefaultBaseSeed = 1;

std::uint64_t BaseSeed() {
  static std::uint64_t seed = [] {
    std::uint64_t value = FuzzBaseSeed(kDefaultBaseSeed);
    // Log unconditionally so a rotated-seed CI failure names its seed.
    std::cout << "[differential_fuzz] SWFOMC_FUZZ_SEED base = " << value
              << std::endl;
    return value;
  }();
  return seed;
}

TEST(DifferentialFuzz, LiftedFO2AgreesWithGrounded) {
  std::uint64_t base = BaseSeed();
  ::testing::Test::RecordProperty("fuzz_base_seed",
                                  static_cast<int64_t>(base));
  for (std::uint64_t offset = 0; offset < 12; ++offset) {
    std::uint64_t seed = base + offset;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RandomSentence random = MakeRandomFO2Sentence(seed);
    Engine engine(random.vocabulary);
    // The generator stays inside the lifted fragment by construction, so
    // Auto must never fall back to grounding. (A sentence that happens to
    // be a positive existential conjunction routes to the γ-acyclic
    // evaluator instead of the cell algorithm — still lifted.)
    ASSERT_NE(engine.Route(random.sentence), Method::kGrounded)
        << logic::ToString(random.sentence, random.vocabulary);
    for (std::uint64_t n = 1; n <= 3; ++n) {
      SCOPED_TRACE("n=" + std::to_string(n));
      Engine::Result lifted =
          engine.WFOMC(random.sentence, n, Method::kLiftedFO2);
      Engine::Result grounded =
          engine.WFOMC(random.sentence, n, Method::kGrounded);
      EXPECT_EQ(lifted.value, grounded.value)
          << logic::ToString(random.sentence, random.vocabulary);
    }
  }
}

TEST(DifferentialFuzz, GammaAcyclicAgreesWithGrounded) {
  std::uint64_t base = BaseSeed();
  for (std::uint64_t offset = 0; offset < 12; ++offset) {
    std::uint64_t seed = base + offset;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // 2-3 atoms: the grounded oracle's lineage grows as n^|vars|, and a
    // 4-atom chain already costs ~30s at n=3 — structurally bounded here
    // so rotated CI seeds can't blow the tier-1 budget.
    RandomSentence random =
        MakeRandomGammaAcyclicSentence(seed, /*atoms=*/2 + seed % 2);
    Engine engine(random.vocabulary);
    // Tree-shaped queries are γ-acyclic by construction, so Auto must
    // route them to the Theorem 3.6 evaluator.
    ASSERT_EQ(engine.Route(random.sentence), Method::kGammaAcyclic)
        << logic::ToString(random.sentence, random.vocabulary);
    for (std::uint64_t n = 1; n <= 3; ++n) {
      SCOPED_TRACE("n=" + std::to_string(n));
      Engine::Result gamma =
          engine.WFOMC(random.sentence, n, Method::kGammaAcyclic);
      Engine::Result grounded =
          engine.WFOMC(random.sentence, n, Method::kGrounded);
      EXPECT_EQ(gamma.value, grounded.value)
          << logic::ToString(random.sentence, random.vocabulary);
    }
  }
}

// The polarity step counts ∃-prefixed sentences as T − WFOMC(¬Φ) on the
// lifted and grounded routes, so routes compared with each other would
// share it. Here every Engine answer is checked against a count of Φ
// itself that no polarity step touches: the grounded pipeline called
// directly, and world enumeration where it is small enough.
//
// Each instance's vocabulary also carries a unary relation Z that the
// sentence never mentions and a 0-ary relation P that half the sentences
// mention; its weights come from a pool with zero, negative and
// w + w̄ = 0 pairs; and the domain sizes start at 0.
void AddUnmentionedRelationsAndHardWeights(std::uint64_t seed,
                                           RandomSentence* random) {
  std::mt19937_64 rng(seed ^ 0x5eed0f1eull);
  const std::pair<BigRational, BigRational> pool[] = {
      {BigRational(2), BigRational(3)},
      {BigRational(0), BigRational(1)},
      {BigRational(1), BigRational(0)},
      {BigRational(-1), BigRational::Fraction(1, 2)},
      {BigRational(1), BigRational(-1)},  // w + w̄ = 0
      {BigRational::Fraction(-2, 3), BigRational(-1)},
  };
  logic::Vocabulary& vocabulary = random->vocabulary;
  vocabulary.AddRelation("Z", 1);
  logic::RelationId p = vocabulary.AddRelation("P", 0);
  for (logic::RelationId id = 0; id < vocabulary.size(); ++id) {
    const auto& [w, w_bar] = pool[rng() % std::size(pool)];
    vocabulary.SetWeights(id, w, w_bar);
  }
  if (seed % 2 == 0) {
    // Mention P under the outermost quantifier, keeping its kind.
    const logic::Formula& root = random->sentence;
    logic::Formula atom = logic::Atom(p, {});
    random->sentence =
        root->kind() == logic::FormulaKind::kExists
            ? logic::Exists(root->variable(), logic::And(root->child(), atom))
            : logic::Forall(root->variable(), logic::Or(root->child(), atom));
  }
}

// Engine's answer for Φ on `method` against the direct grounded count of
// Φ, and WFOMC(Φ) + WFOMC(¬Φ) = T on the same method.
void ExpectDirectCountAndComplementIdentity(Engine* engine,
                                            const logic::Formula& sentence,
                                            Method method, std::uint64_t n) {
  const logic::Vocabulary& vocabulary = engine->vocabulary();
  SCOPED_TRACE(std::string(api::ToString(method)) +
               " n=" + std::to_string(n) + ": " +
               logic::ToString(sentence, vocabulary));
  BigRational direct = grounding::GroundedWFOMC(sentence, vocabulary, n);
  Engine::Result result = engine->WFOMC(sentence, n, method);
  EXPECT_EQ(result.method, method);
  EXPECT_EQ(result.value, direct);
  logic::Formula negation = logic::ToNNF(logic::Not(sentence));
  // ¬Φ of a conjunctive query is no conjunctive query: count it grounded.
  Method negation_method =
      method == Method::kGammaAcyclic ? Method::kGrounded : method;
  EXPECT_EQ(result.value + engine->WFOMC(negation, n, negation_method).value,
            vocabulary.TotalWeight(n));
}

TEST(DifferentialFuzz, EveryRouteMatchesADirectCountOfTheSentence) {
  std::uint64_t base = BaseSeed();
  for (std::uint64_t offset = 0; offset < 12; ++offset) {
    std::uint64_t seed = base + offset;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RandomSentence random = MakeRandomFO2Sentence(seed);
    AddUnmentionedRelationsAndHardWeights(seed, &random);
    Engine engine(random.vocabulary);
    for (std::uint64_t n = 0; n <= 3; ++n) {
      for (Method method : {Method::kLiftedFO2, Method::kGrounded}) {
        ExpectDirectCountAndComplementIdentity(&engine, random.sentence,
                                               method, n);
      }
      if (n <= 2) {
        EXPECT_EQ(engine.WFOMC(random.sentence, n).value,
                  grounding::ExhaustiveWFOMC(random.sentence,
                                             random.vocabulary, n))
            << "n=" << n;
      }
    }
  }
}

TEST(DifferentialFuzz, ConjunctiveQueriesMatchADirectCountOnEveryRoute) {
  std::uint64_t base = BaseSeed();
  for (std::uint64_t offset = 0; offset < 8; ++offset) {
    std::uint64_t seed = base + offset;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RandomSentence random = MakeRandomGammaAcyclicSentence(seed, 2);
    // The query's own weights come from a pool with w + w̄ = 0, negative
    // and zero weights and rational pairs: the γ-acyclic route counts in
    // weight space, so it takes every pair. Dealt in turn, so the 8
    // seeds use every pair of the pool.
    const std::pair<BigRational, BigRational> kPool[] = {
        {BigRational(1), BigRational(-1)},
        {BigRational::Fraction(-2, 3), BigRational(2)},
        {BigRational(0), BigRational::Fraction(3, 2)},
        {BigRational::Fraction(4, 7), BigRational::Fraction(7, 5)},
        {BigRational(2), BigRational(1)}};
    for (logic::RelationId id = 0; id < random.vocabulary.size(); ++id) {
      const auto& [w, w_bar] =
          kPool[(random.vocabulary.size() * offset + id) % std::size(kPool)];
      random.vocabulary.SetWeights(id, w, w_bar);
    }
    // Relations the query does not mention: a unary one with a negative
    // weight and a 0-ary one with w + w̄ = 0.
    random.vocabulary.AddRelation("Z", 1, BigRational(-2), BigRational(3));
    random.vocabulary.AddRelation("P", 0, BigRational(1), BigRational(-1));
    Engine engine(random.vocabulary);
    ASSERT_EQ(engine.Route(random.sentence), Method::kGammaAcyclic);
    for (std::uint64_t n = 0; n <= 2; ++n) {
      for (Method method : {Method::kGammaAcyclic, Method::kGrounded}) {
        ExpectDirectCountAndComplementIdentity(&engine, random.sentence,
                                               method, n);
      }
    }
  }
}

TEST(DifferentialFuzz, BoundaryWeightsAgreeAcrossCounterAndCircuit) {
  // Weights pinned a few units off ±2^62 make every multiply cross the
  // BigInt inline/heap seam and every reduced sum land back inside it —
  // the regime where a promote/demote or deferred-gcd bug would show as
  // a cross-engine disagreement. Oracle: brute-force enumeration; under
  // test: the DPLL counter and the traced d-DNNF circuit evaluated under
  // the same weights. Every value must be bit-identical.
  std::uint64_t base = BaseSeed();
  std::mt19937_64 rng(base ^ 0xb0a2d2e1ull);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    prop::CnfFormula cnf = testutil::RandomCnf(&rng, 8, 10, 3);
    wmc::WeightMap weights = testutil::RandomBoundaryWeights(&rng, 8);
    BigRational oracle = wmc::BruteForceWMC(cnf, weights);

    nnf::CircuitBuilder builder(cnf.variable_count);
    wmc::DpllCounter::Options trace_options;
    trace_options.trace_sink = &builder;
    wmc::DpllCounter tracing(cnf, weights, trace_options);
    EXPECT_EQ(tracing.Count(), oracle);
    nnf::Circuit circuit = builder.Finish();
    EXPECT_EQ(circuit.Evaluate(weights), oracle);
    // Serving form: the same circuit through a reused arena.
    nnf::Circuit::EvalArena arena;
    EXPECT_EQ(circuit.Evaluate(weights, &arena), oracle);
    EXPECT_EQ(circuit.Evaluate(weights, &arena), oracle);

    wmc::DpllCounter counter(cnf, weights);
    EXPECT_EQ(counter.Count(), oracle);
  }
}

TEST(DifferentialFuzz, TapeFoldsAuxiliariesOfRandomCnfs) {
  // A random CNF whose tail variables are declared auxiliaries, weighted
  // (1, 1) as Tseitin auxiliaries are: the evaluation tape folds their
  // literals, and free or auxiliary-only components become constants
  // (2, 4, ...), so every fold rule runs. Oracle: brute force, under the
  // compile-time weights and fresh ones, boundary weights included.
  std::uint64_t base = BaseSeed();
  std::mt19937_64 rng(base ^ 0x7a9e0f01ull);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    std::uint32_t variables = 4 + static_cast<std::uint32_t>(rng() % 6);
    auto auxiliary_begin = static_cast<std::uint32_t>(rng() % variables);
    prop::CnfFormula cnf =
        testutil::RandomCnf(&rng, variables, 3 + rng() % 8, 1 + rng() % 3);
    auto weigh = [&](bool boundary) {
      wmc::WeightMap weights =
          boundary ? testutil::RandomBoundaryWeights(&rng, variables)
                   : testutil::RandomWeights(&rng, variables,
                                             /*allow_negative=*/true);
      for (prop::VarId v = auxiliary_begin; v < variables; ++v) {
        weights.Set(v, BigRational(1), BigRational(1));
      }
      return weights;
    };
    wmc::WeightMap compile_weights = weigh(false);
    nnf::CircuitBuilder builder(variables);
    wmc::DpllCounter::Options trace_options;
    trace_options.trace_sink = &builder;
    BigRational count =
        wmc::DpllCounter(cnf, compile_weights, trace_options).Count();
    nnf::Circuit circuit = builder.Finish(auxiliary_begin);
    EXPECT_EQ(count, wmc::BruteForceWMC(cnf, compile_weights));
    EXPECT_EQ(circuit.Evaluate(compile_weights), count);
    nnf::Circuit::EvalArena arena;
    for (bool boundary : {false, true, false, true}) {
      wmc::WeightMap weights = weigh(boundary);
      EXPECT_EQ(circuit.Evaluate(weights, &arena),
                wmc::BruteForceWMC(cnf, weights))
          << (boundary ? "boundary" : "random") << " weights";
    }
    wmc::WeightMap reweighted = compile_weights;
    reweighted.Set(variables - 1, BigRational(2), BigRational(1));
    EXPECT_THROW(circuit.Evaluate(reweighted, &arena), std::invalid_argument);
  }
}

// A random decomposable, deterministic circuit that is deliberately not
// smooth. Each subcircuit drops a quarter of the variables its parent
// offers, so decision branches miss variables the other branch mentions
// and the root misses variables of the circuit. Inner nodes decide a
// variable, OR(AND(v, ·), AND(¬v, ·)), with or without the decision
// annotation, or split their variables between the children of an AND.
class RandomDecisionCircuit {
 public:
  using NodeId = nnf::Circuit::NodeId;

  RandomDecisionCircuit(std::mt19937_64* rng, std::uint32_t variables)
      : rng_(rng), variables_(variables) {}

  nnf::Circuit Build() {
    std::vector<prop::VarId> scope(variables_);
    for (prop::VarId v = 0; v < variables_; ++v) scope[v] = v;
    NodeId root = Grow(std::move(scope), 4);
    return nnf::Circuit(variables_, nodes_, edges_, root);
  }

 private:
  NodeId Add(nnf::Circuit::Node node, std::vector<NodeId> children) {
    node.children_begin = static_cast<std::uint32_t>(edges_.size());
    edges_.insert(edges_.end(), children.begin(), children.end());
    node.children_end = static_cast<std::uint32_t>(edges_.size());
    nodes_.push_back(node);
    return static_cast<NodeId>(nodes_.size() - 1);
  }

  NodeId Literal(prop::VarId v, bool positive) {
    return Add({.kind = nnf::NodeKind::kLiteral,
                .literal = prop::MakeLit(v, positive)},
               {});
  }

  NodeId Grow(std::vector<prop::VarId> scope, int depth) {
    std::erase_if(scope, [&](prop::VarId) { return (*rng_)() % 4 == 0; });
    if (scope.empty() || depth == 0 || (*rng_)() % 6 == 0) {
      switch ((*rng_)() % 6) {
        case 0:
          return Add({.kind = nnf::NodeKind::kTrue}, {});
        case 1:
          return Add({.kind = nnf::NodeKind::kFalse}, {});
        default:
          if (scope.empty()) return Add({.kind = nnf::NodeKind::kTrue}, {});
          return Literal(scope[(*rng_)() % scope.size()], (*rng_)() % 2 == 0);
      }
    }
    std::shuffle(scope.begin(), scope.end(), *rng_);
    if (scope.size() >= 2 && (*rng_)() % 3 == 0) {
      auto split = static_cast<std::ptrdiff_t>(1 + (*rng_)() % (scope.size() - 1));
      NodeId left = Grow({scope.begin(), scope.begin() + split}, depth - 1);
      NodeId right = Grow({scope.begin() + split, scope.end()}, depth - 1);
      return Add({.kind = nnf::NodeKind::kAnd}, {left, right});
    }
    const prop::VarId decision = scope.back();
    scope.pop_back();
    std::vector<NodeId> branches;
    for (bool positive : {true, false}) {
      NodeId literal = Literal(decision, positive);
      NodeId rest = Grow(scope, depth - 1);
      branches.push_back(Add({.kind = nnf::NodeKind::kAnd}, {literal, rest}));
    }
    return Add({.kind = nnf::NodeKind::kOr,
                .decision = (*rng_)() % 2 == 0 ? decision : nnf::kNoDecision},
               branches);
  }

  std::mt19937_64* rng_;
  std::uint32_t variables_;
  std::vector<nnf::Circuit::Node> nodes_;
  std::vector<NodeId> edges_;
};

// The weighted model count of the circuit's Boolean function over all
// 2^k assignments, read off the nodes as a Boolean circuit: no smoothing,
// no arithmetic on the DAG.
BigRational BruteForceCircuitWMC(const nnf::Circuit& circuit,
                                 const wmc::WeightMap& weights) {
  const std::uint32_t variables = circuit.variable_count();
  BigRational total;
  std::vector<char> holds(circuit.node_count());
  for (std::uint64_t world = 0; world < (std::uint64_t{1} << variables);
       ++world) {
    for (nnf::Circuit::NodeId id = 0; id < circuit.node_count(); ++id) {
      const nnf::Circuit::Node& node = circuit.node(id);
      auto children = circuit.Children(id);
      switch (node.kind) {
        case nnf::NodeKind::kTrue:
          holds[id] = 1;
          break;
        case nnf::NodeKind::kFalse:
          holds[id] = 0;
          break;
        case nnf::NodeKind::kLiteral:
          holds[id] = ((world >> prop::LitVariable(node.literal)) & 1) ==
                      (prop::LitPositive(node.literal) ? 1u : 0u);
          break;
        case nnf::NodeKind::kAnd:
          holds[id] = std::all_of(children.begin(), children.end(),
                                  [&](auto child) { return holds[child]; });
          break;
        case nnf::NodeKind::kOr:
          holds[id] = std::any_of(children.begin(), children.end(),
                                  [&](auto child) { return holds[child]; });
          break;
      }
    }
    if (!holds[circuit.root()]) continue;
    BigRational weight(1);
    for (prop::VarId v = 0; v < variables; ++v) {
      weight *= weights.LiteralWeight(v, ((world >> v) & 1) != 0);
    }
    total += weight;
  }
  return total;
}

// Whether every OR's children mention the same variables and the root
// mentions every variable (circuits of at most 32 variables).
bool SmoothAndCovering(const nnf::Circuit& circuit) {
  std::vector<std::uint32_t> mentions(circuit.node_count(), 0);
  for (nnf::Circuit::NodeId id = 0; id < circuit.node_count(); ++id) {
    const nnf::Circuit::Node& node = circuit.node(id);
    if (node.kind == nnf::NodeKind::kLiteral) {
      mentions[id] = std::uint32_t{1} << prop::LitVariable(node.literal);
    }
    for (nnf::Circuit::NodeId child : circuit.Children(id)) {
      if (node.kind == nnf::NodeKind::kOr &&
          mentions[child] != mentions[circuit.Children(id).front()]) {
        return false;
      }
      mentions[id] |= mentions[child];
    }
  }
  return mentions[circuit.root()] ==
         (std::uint64_t{1} << circuit.variable_count()) - 1;
}

TEST(DifferentialFuzz, RandomDecisionCircuitsMatchBruteForce) {
  // Circuit::Evaluate smooths while lowering: an OR child missing some of
  // its parent's variables, and a root missing some of the circuit's, are
  // multiplied by (w + w̄) per missing variable. Oracle: brute-force WMC
  // of the circuit's Boolean function. Half the circuits stand for their
  // complement (a `t K` line), T_K − WMC. Weights: random with and
  // without negatives, ±2^62 boundary, and zero weights and zero totals.
  std::uint64_t base = BaseSeed();
  std::mt19937_64 rng(base ^ 0x5e00d7c1ull);
  int non_smooth = 0;
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    const auto variables = static_cast<std::uint32_t>(1 + rng() % 8);
    nnf::Circuit circuit = RandomDecisionCircuit(&rng, variables).Build();
    std::string violation;
    ASSERT_TRUE(circuit.Validate(&violation)) << violation;
    std::optional<std::uint32_t> complement;
    if (rng() % 2 == 0) {
      complement = static_cast<std::uint32_t>(rng() % (variables + 1));
      circuit.SetComplement(*complement);
    }
    nnf::Circuit::EvalArena arena;
    for (int regime = 0; regime < 5; ++regime) {
      wmc::WeightMap weights =
          regime == 3 ? testutil::RandomBoundaryWeights(&rng, variables)
                      : testutil::RandomWeights(&rng, variables,
                                                /*allow_negative=*/regime != 0);
      if (regime == 4) {
        weights.Set(static_cast<prop::VarId>(rng() % variables),
                    BigRational(0), BigRational(3));
        weights.Set(static_cast<prop::VarId>(rng() % variables),
                    BigRational::Fraction(-2, 3), BigRational::Fraction(2, 3));
      }
      BigRational expected = BruteForceCircuitWMC(circuit, weights);
      if (complement.has_value()) {
        BigRational total(1);
        for (prop::VarId v = 0; v < *complement; ++v) {
          total *= weights.Get(v).Total();
        }
        expected = total - expected;
      }
      EXPECT_EQ(circuit.Evaluate(weights, &arena), expected)
          << "regime " << regime;
    }
    if (!SmoothAndCovering(circuit)) ++non_smooth;
  }
  // The generator must actually exercise smoothing.
  EXPECT_GE(non_smooth, 30);
}

TEST(DifferentialFuzz, SweepCoversDomainSizeZero) {
  // n = 0 takes a direct-evaluation path on the lifted route (the normal
  // form assumes a non-empty domain); a sweep starting at 0 must match
  // the per-point calls anyway.
  RandomSentence random = MakeRandomFO2Sentence(BaseSeed());
  Engine engine(random.vocabulary);
  Engine::SweepResult sweep =
      engine.WFOMCSweep(random.sentence, 0, 2, Method::kLiftedFO2);
  ASSERT_EQ(sweep.points.size(), 3u);
  for (const Engine::SweepPoint& point : sweep.points) {
    SCOPED_TRACE("n=" + std::to_string(point.domain_size));
    EXPECT_EQ(point.value,
              engine.WFOMC(random.sentence, point.domain_size,
                           Method::kLiftedFO2)
                  .value);
  }
}

TEST(DifferentialFuzz, SweepMatchesPointQueriesOnAllRoutes) {
  // WFOMCSweep must be a pure batching of WFOMC: same values, same
  // routing, for each of the three engines.
  std::uint64_t base = BaseSeed();
  for (std::uint64_t offset = 0; offset < 4; ++offset) {
    std::uint64_t seed = base + offset;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RandomSentence fo2 = MakeRandomFO2Sentence(seed);
    RandomSentence gamma = MakeRandomGammaAcyclicSentence(seed, 3);
    struct Case {
      RandomSentence* instance;
      Method method;
    } cases[] = {
        {&fo2, Method::kLiftedFO2},
        {&fo2, Method::kGrounded},
        {&gamma, Method::kGammaAcyclic},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(api::ToString(c.method));
      Engine engine(c.instance->vocabulary);
      Engine::SweepResult sweep =
          engine.WFOMCSweep(c.instance->sentence, 1, 3, c.method);
      ASSERT_EQ(sweep.points.size(), 3u);
      EXPECT_EQ(sweep.method, c.method);
      for (const Engine::SweepPoint& point : sweep.points) {
        SCOPED_TRACE("n=" + std::to_string(point.domain_size));
        Engine::Result reference =
            engine.WFOMC(c.instance->sentence, point.domain_size, c.method);
        EXPECT_EQ(point.value, reference.value)
            << logic::ToString(c.instance->sentence, c.instance->vocabulary);
      }
    }
  }
}

}  // namespace
}  // namespace swfomc
