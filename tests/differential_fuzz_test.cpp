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

#include <cstdint>
#include <iostream>

#include "api/engine.h"
#include "cq/acyclicity.h"
#include "cq/hypergraph.h"
#include "logic/printer.h"
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
