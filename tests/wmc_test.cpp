#include "wmc/dpll_counter.h"

#include <iterator>
#include <random>

#include <gtest/gtest.h>

#include "grounding/grounded_wfomc.h"
#include "io/nnf_format.h"
#include "logic/parser.h"
#include "nnf/circuit_builder.h"
#include "prop/compact_cnf.h"
#include "prop/tseitin.h"
#include "runtime/budget.h"
#include "test_util.h"
#include "wmc/brute_force.h"
#include "wmc/component_cache.h"

namespace swfomc::wmc {
namespace {

using numeric::BigInt;
using numeric::BigRational;
using prop::CnfFormula;
using prop::MakeLit;
using prop::PropFormula;
using prop::VarId;
using testutil::RandomCnf;
using testutil::RandomWeights;

TEST(BruteForceTest, UnweightedCountSimple) {
  // x0 | x1 has 3 models over 2 variables.
  PropFormula f = prop::PropOr(prop::PropVar(0), prop::PropVar(1));
  EXPECT_EQ(BruteForceCount(f, 2).ToInt64(), 3);
  // Over 3 variables the free variable doubles the count.
  EXPECT_EQ(BruteForceCount(f, 3).ToInt64(), 6);
}

TEST(BruteForceTest, RefusesHugeEnumerations) {
  EXPECT_THROW(BruteForceCount(prop::PropTrue(), 31), std::invalid_argument);
}

TEST(DpllCounterTest, EmptyCnfCountsAllAssignments) {
  CnfFormula cnf;
  cnf.variable_count = 3;
  WeightMap weights(3);
  EXPECT_EQ(CountWeightedModels(cnf, weights), BigRational(8));
}

TEST(DpllCounterTest, EmptyClauseMeansZero) {
  CnfFormula cnf;
  cnf.variable_count = 2;
  cnf.clauses = {{}};
  WeightMap weights(2);
  EXPECT_EQ(CountWeightedModels(cnf, weights), BigRational(0));
  // The root conflict comes before any propagation or search, traced or
  // not, even when a unit clause precedes the empty one: every counter
  // stays zero.
  CnfFormula after_unit = cnf;
  after_unit.clauses = {{MakeLit(0, true)}, {}};
  for (const CnfFormula& input : {cnf, after_unit}) {
    for (bool traced : {false, true}) {
      nnf::CircuitBuilder builder(input.variable_count);
      DpllCounter::Options options;
      if (traced) options.trace_sink = &builder;
      DpllCounter counter(input, weights, options);
      EXPECT_EQ(counter.Count(), BigRational(0));
      EXPECT_EQ(counter.stats(), DpllCounter::Stats{})
          << input.clauses.size() << " clauses, traced " << traced;
    }
  }
}

TEST(DpllCounterTest, UnitClauseForcesValue) {
  CnfFormula cnf;
  cnf.variable_count = 2;
  cnf.clauses = {{MakeLit(0, true)}};
  WeightMap weights(2);
  weights.Set(0, BigRational(3), BigRational(5));
  // x0 forced true (weight 3), x1 free (1+1).
  EXPECT_EQ(CountWeightedModels(cnf, weights), BigRational(6));
}

TEST(DpllCounterTest, ContradictoryUnitsGiveZero) {
  CnfFormula cnf;
  cnf.variable_count = 1;
  cnf.clauses = {{MakeLit(0, true)}, {MakeLit(0, false)}};
  EXPECT_EQ(CountWeightedModels(cnf, WeightMap(1)), BigRational(0));
}

TEST(DpllCounterTest, MatchesBruteForceUnweightedRandom) {
  std::mt19937_64 rng(41);
  for (int trial = 0; trial < 120; ++trial) {
    CnfFormula cnf = RandomCnf(&rng, 6, 3 + rng() % 8, 3);
    WeightMap weights(6);
    BigRational expected = BruteForceWMC(cnf, weights);
    EXPECT_EQ(CountWeightedModels(cnf, weights), expected) << "trial " << trial;
  }
}

TEST(DpllCounterTest, MatchesBruteForcePositiveWeights) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 80; ++trial) {
    CnfFormula cnf = RandomCnf(&rng, 6, 2 + rng() % 8, 3);
    WeightMap weights = RandomWeights(&rng, 6, /*allow_negative=*/false);
    BigRational expected = BruteForceWMC(cnf, weights);
    EXPECT_EQ(CountWeightedModels(cnf, weights), expected) << "trial " << trial;
  }
}

TEST(DpllCounterTest, MatchesBruteForceNegativeWeights) {
  // Negative weights are load-bearing for Lemma 3.3 / Example 1.2.
  std::mt19937_64 rng(43);
  for (int trial = 0; trial < 80; ++trial) {
    CnfFormula cnf = RandomCnf(&rng, 6, 2 + rng() % 8, 3);
    WeightMap weights = RandomWeights(&rng, 6, /*allow_negative=*/true);
    BigRational expected = BruteForceWMC(cnf, weights);
    EXPECT_EQ(CountWeightedModels(cnf, weights), expected) << "trial " << trial;
  }
}

TEST(DpllCounterTest, ZeroWeightsHandled) {
  CnfFormula cnf;
  cnf.variable_count = 2;
  cnf.clauses = {{MakeLit(0, true), MakeLit(1, true)}};
  WeightMap weights(2);
  weights.Set(0, BigRational(0), BigRational(1));
  weights.Set(1, BigRational(2), BigRational(0));
  // Models: (T,T):0*2, (T,F):0*0, (F,T):1*2 -> total 2.
  EXPECT_EQ(CountWeightedModels(cnf, weights), BigRational(2));
}

TEST(DpllCounterTest, OptionsProduceSameAnswer) {
  std::mt19937_64 rng(44);
  for (int trial = 0; trial < 40; ++trial) {
    CnfFormula cnf = RandomCnf(&rng, 8, 6 + rng() % 8, 3);
    WeightMap weights = RandomWeights(&rng, 8, true);
    BigRational reference = BruteForceWMC(cnf, weights);
    for (bool components : {false, true}) {
      for (bool cache : {false, true}) {
        DpllCounter::Options options;
        options.use_components = components;
        options.use_cache = cache;
        DpllCounter counter(cnf, weights, options);
        EXPECT_EQ(counter.Count(), reference)
            << "components=" << components << " cache=" << cache;
      }
    }
  }
}

TEST(DpllCounterTest, ComponentDecompositionFires) {
  // Two disjoint clauses must split into components.
  CnfFormula cnf;
  cnf.variable_count = 4;
  cnf.clauses = {{MakeLit(0, true), MakeLit(1, true)},
                 {MakeLit(2, true), MakeLit(3, true)}};
  DpllCounter counter(cnf, WeightMap(4));
  EXPECT_EQ(counter.Count(), BigRational(9));
  EXPECT_GE(counter.stats().component_splits, 1u);
}

TEST(DpllCounterTest, CacheHitsOnRepeatedComponents) {
  // A chain of independent identical blocks: (x_i | x_{i+1}) pairs.
  CnfFormula cnf;
  cnf.variable_count = 12;
  for (VarId v = 0; v < 12; v += 2) {
    cnf.clauses.push_back({MakeLit(v, true), MakeLit(VarId(v + 1), true)});
  }
  DpllCounter counter(cnf, WeightMap(12));
  EXPECT_EQ(counter.Count(), BigRational(3 * 3 * 3 * 3 * 3 * 3));
  // Identical blocks over distinct variables have distinct keys, so the
  // only guarantee is correctness; components must have fired.
  EXPECT_GE(counter.stats().component_splits, 1u);
}

TEST(DpllCounterTest, CountsViaTseitinPipeline) {
  // Full pipeline: formula -> Tseitin -> weighted count equals brute WMC
  // over the original variables.
  std::mt19937_64 rng(45);
  for (int trial = 0; trial < 40; ++trial) {
    PropFormula f = testutil::RandomPropFormula(&rng, 3, 5);
    WeightMap original_weights = RandomWeights(&rng, 5, true);
    BigRational expected = BruteForceWMC(f, 5, original_weights);

    prop::TseitinResult tseitin = prop::TseitinTransform(f, 5);
    WeightMap extended = original_weights;
    extended.EnsureSize(tseitin.cnf.variable_count);
    EXPECT_EQ(CountWeightedModels(tseitin.cnf, extended), expected)
        << PropToString(f);
  }
}

TEST(DpllCounterTest, MatchesBruteForceLargerSeededRandom) {
  // Differential oracle on larger instances than the quick checks above:
  // mixed clause widths, negative weights, default (trail + components +
  // cache) configuration.
  std::mt19937_64 rng(47);
  for (int trial = 0; trial < 60; ++trial) {
    CnfFormula cnf = RandomCnf(&rng, 10, 8 + rng() % 16, 2 + rng() % 3);
    WeightMap weights = RandomWeights(&rng, 10, /*allow_negative=*/true);
    BigRational expected = BruteForceWMC(cnf, weights);
    EXPECT_EQ(CountWeightedModels(cnf, weights), expected) << "trial " << trial;
  }
}

TEST(DpllCounterTest, GroundedPipelineMatchesExhaustiveWFOMC) {
  // End-to-end differential: lineage -> Tseitin -> counter vs exhaustive
  // world enumeration, with non-trivial weights.
  struct Case {
    const char* sentence;
    std::uint64_t n;
  };
  const Case cases[] = {
      {"forall x forall y (R(x) | S(x,y) | T(y))", 2},
      {"forall x exists y S(x,y)", 3},
      {"exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", 2},
  };
  for (const Case& c : cases) {
    logic::Vocabulary vocab;
    logic::Formula phi = logic::Parse(c.sentence, &vocab);
    for (logic::RelationId id = 0; id < vocab.size(); ++id) {
      vocab.SetWeights(id, BigRational(2), BigRational::Fraction(1, 3));
    }
    EXPECT_EQ(grounding::GroundedWFOMC(phi, vocab, c.n),
              grounding::ExhaustiveWFOMC(phi, vocab, c.n))
        << c.sentence << " n=" << c.n;
  }
}

TEST(DpllCounterTest, CacheSoundnessOnGroundedLineage) {
  // All four option combinations must agree on an instance too large for
  // brute force (grounded triangle lineage, 463 models at n=3).
  logic::Vocabulary vocab;
  logic::Formula phi = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocab);
  for (bool components : {false, true}) {
    for (bool cache : {false, true}) {
      DpllCounter::Options options;
      options.use_components = components;
      options.use_cache = cache;
      EXPECT_EQ(grounding::GroundedWFOMC(phi, vocab, 3, options),
                BigRational(463))
          << "components=" << components << " cache=" << cache;
    }
  }
}

// The path x0 | x1, x1 | x2, .., x14 | x15: F(18) = 2584 models, with
// suffix chains that recur across branches (cache hits).
CnfFormula PathCnf() {
  CnfFormula cnf;
  cnf.variable_count = 16;
  for (VarId v = 0; v + 1 < 16; ++v) {
    cnf.clauses.push_back({MakeLit(v, true), MakeLit(VarId(v + 1), true)});
  }
  return cnf;
}

TEST(DpllCounterTest, CacheHitsOnRepeatedSuffixChains) {
  // A path (x_i | x_{i+1}): branching at the frontier leaves suffix
  // chains that recur across branches, so the component cache must score
  // hits; the count is the Fibonacci number F(18) = 2584.
  DpllCounter counter(PathCnf(), WeightMap(16));
  EXPECT_EQ(counter.Count(), BigRational(2584));
  EXPECT_GT(counter.stats().cache_hits, 0u);
  EXPECT_GT(counter.stats().cache_entries, 0u);
}

TEST(DpllCounterTest, StatsReportCacheActivityOnGroundedLineage) {
  logic::Vocabulary vocab;
  logic::Formula phi = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocab);
  DpllCounter::Stats stats;
  grounding::GroundedWFOMC(phi, vocab, 3, {}, &stats);
  EXPECT_GT(stats.decisions, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_entries, 0u);
  EXPECT_EQ(stats.cache_evictions, 0u);  // far below the entry bound
}

TEST(DpllCounterTest, CacheMemoryCeilingEvicts) {
  // A budget's memory ceiling (the path behind --max-memory) bounds the
  // counting memo: with room for about one entry the counter must stay
  // exact and record evictions.
  runtime::Budget budget;
  budget.SetMaxMemoryBytes(256);
  DpllCounter::Options options;
  options.budget = &budget;
  DpllCounter counter(PathCnf(), WeightMap(16), options);
  EXPECT_EQ(counter.Count(), BigRational(2584));
  EXPECT_LE(counter.stats().cache_bytes, 256u);
  EXPECT_GT(counter.stats().cache_evictions, 0u);
}

// Counts `cnf` in tracing mode under `options` and returns the circuit's
// .nnf text; *stats receives the counter's stats.
std::string TracedNnf(const CnfFormula& cnf, DpllCounter::Options options,
                      DpllCounter::Stats* stats) {
  nnf::CircuitBuilder builder(cnf.variable_count);
  options.trace_sink = &builder;
  WeightMap weights(cnf.variable_count);
  DpllCounter counter(cnf, weights, options);
  EXPECT_EQ(counter.CountBounded().outcome,
            DpllCounter::CountOutcome::kExact);
  *stats = counter.stats();
  return io::PrintNnf(io::NnfDocument{builder.Finish(), weights, {}});
}

TEST(DpllCounterTest, TracingMemoNeverEvictsAndReportsItsBytes) {
  // The ceiling that evicts in CacheMemoryCeilingEvicts binds only the
  // counting memo: a traced hit must return the node of the first
  // computation, so the traced memo keeps every entry and emits the same
  // circuit as an ungoverned trace. Its bytes are reported all the same.
  DpllCounter::Stats free_stats;
  std::string free_nnf = TracedNnf(PathCnf(), {}, &free_stats);
  runtime::Budget budget;
  budget.SetMaxMemoryBytes(256);
  DpllCounter::Options capped;
  capped.budget = &budget;
  DpllCounter::Stats capped_stats;
  std::string capped_nnf = TracedNnf(PathCnf(), capped, &capped_stats);
  EXPECT_EQ(capped_nnf, free_nnf);
  EXPECT_EQ(capped_stats.cache_evictions, 0u);
  EXPECT_GT(capped_stats.cache_hits, 0u);
  EXPECT_EQ(capped_stats.cache_entries, free_stats.cache_entries);
  EXPECT_GT(capped_stats.cache_bytes, 256u);
  EXPECT_EQ(capped_stats.cache_bytes, free_stats.cache_bytes);
}

TEST(DpllCounterTest, RepeatedCountReportsPerInvocationStats) {
  // Every Count() starts on an empty memo, so a second count on the same
  // counter repeats the first one exactly — answer and stats alike.
  for (bool traced : {false, true}) {
    SCOPED_TRACE("traced=" + std::to_string(traced));
    nnf::CircuitBuilder builder(16);
    DpllCounter::Options options;
    if (traced) options.trace_sink = &builder;
    DpllCounter counter(PathCnf(), WeightMap(16), options);
    EXPECT_EQ(counter.Count(), BigRational(2584));
    DpllCounter::Stats first = counter.stats();
    EXPECT_GT(first.cache_insertions, 0u);
    EXPECT_EQ(counter.Count(), BigRational(2584));
    EXPECT_EQ(counter.stats(), first);
  }
}

// --- Denominator clearing ------------------------------------------------

// Runs ClearDenominators over the first `count` of `pairs`; the cleared
// weights land in *literals, indexed by Lit.
BigInt ClearPairs(const std::vector<VariableWeights>& pairs, VarId count,
                  std::vector<BigInt>* literals) {
  WeightMap weights(pairs.size());
  for (VarId v = 0; v < pairs.size(); ++v) {
    weights.Set(v, pairs[v].positive, pairs[v].negative);
  }
  literals->assign(2 * std::size_t{count}, BigInt(-99));
  return ClearDenominators(weights, count, *literals);
}

BigInt Cleared(const std::vector<BigInt>& literals, VarId v, bool positive) {
  return literals[prop::MakeLit(v, positive)];
}

TEST(ClearDenominatorsTest, ScalesByTheLcmNotTheProduct) {
  // lcm(4, 6) = 12, not 24: 1/4 → 3 and −5/6 → −10.
  std::vector<BigInt> literals;
  EXPECT_EQ(ClearPairs({{BigRational::Fraction(1, 4),
                         BigRational::Fraction(-5, 6)}},
                       1, &literals),
            BigInt(12));
  EXPECT_EQ(Cleared(literals, 0, true), BigInt(3));
  EXPECT_EQ(Cleared(literals, 0, false), BigInt(-10));
}

TEST(ClearDenominatorsTest, ZeroWeightContributesDenominatorOne) {
  std::vector<BigInt> zero_and_integer;
  EXPECT_EQ(
      ClearPairs({{BigRational(0), BigRational(7)}}, 1, &zero_and_integer),
      BigInt(1));
  EXPECT_EQ(Cleared(zero_and_integer, 0, true), BigInt(0));
  EXPECT_EQ(Cleared(zero_and_integer, 0, false), BigInt(7));

  std::vector<BigInt> zero_and_fraction;
  EXPECT_EQ(ClearPairs({{BigRational::Fraction(3, 5), BigRational(0)}}, 1,
                       &zero_and_fraction),
            BigInt(5));
  EXPECT_EQ(Cleared(zero_and_fraction, 0, true), BigInt(3));
  EXPECT_EQ(Cleared(zero_and_fraction, 0, false), BigInt(0));
}

TEST(ClearDenominatorsTest, NegativeNumeratorsKeepTheirSign) {
  std::vector<BigInt> literals;
  EXPECT_EQ(ClearPairs({{BigRational::Fraction(-2, 3),
                         BigRational::Fraction(-1, 6)}},
                       1, &literals),
            BigInt(6));
  EXPECT_EQ(Cleared(literals, 0, true), BigInt(-4));
  EXPECT_EQ(Cleared(literals, 0, false), BigInt(-1));

  std::vector<BigInt> integers;
  EXPECT_EQ(ClearPairs({{BigRational(-3), BigRational(2)}}, 1, &integers),
            BigInt(1));
  EXPECT_EQ(Cleared(integers, 0, true), BigInt(-3));
  EXPECT_EQ(Cleared(integers, 0, false), BigInt(2));
}

TEST(ClearDenominatorsTest, ScaleIsTheProductOfThePerVariableLcms) {
  // d = 12, 1, 5, 6 for the four counted variables: D = 360, not their
  // lcm 60. The fifth pair lies past `count`, so its 7 stays out of D
  // and nothing is written for it.
  const std::vector<VariableWeights> pairs = {
      {BigRational::Fraction(1, 4), BigRational::Fraction(-5, 6)},
      {BigRational(0), BigRational(7)},
      {BigRational::Fraction(3, 5), BigRational(0)},
      {BigRational::Fraction(-2, 3), BigRational::Fraction(-1, 6)},
      {BigRational::Fraction(1, 7), BigRational(1)}};
  std::vector<BigInt> literals;
  EXPECT_EQ(ClearPairs(pairs, 4, &literals), BigInt(360));
  ASSERT_EQ(literals.size(), 8u);
  const std::int64_t expected[4][2] = {{3, -10}, {0, 7}, {3, 0}, {-4, -1}};
  for (VarId v = 0; v < 4; ++v) {
    EXPECT_EQ(Cleared(literals, v, true), BigInt(expected[v][0])) << v;
    EXPECT_EQ(Cleared(literals, v, false), BigInt(expected[v][1])) << v;
  }
}

// Weights with pairwise non-coprime denominators (so per-variable lcms
// differ from products), mixed with zeros, negatives and integers.
WeightMap NonCoprimeWeights(std::mt19937_64* rng, std::uint32_t variables,
                            bool allow_negative) {
  static const std::int64_t kPalette[][2] = {
      {1, 4}, {-5, 6}, {0, 1}, {-3, 8}, {7, 12}, {2, 1},
      {-1, 1}, {5, 6}, {3, 10}, {-9, 4}, {1, 15}, {4, 9}};
  WeightMap weights(variables);
  auto pick = [&]() {
    while (true) {
      const std::int64_t* w = kPalette[(*rng)() % std::size(kPalette)];
      if (allow_negative || w[0] >= 0) return BigRational::Fraction(w[0], w[1]);
    }
  };
  for (VarId v = 0; v < variables; ++v) {
    BigRational positive = pick();
    weights.Set(v, std::move(positive), pick());
  }
  return weights;
}

// Checks the count of `cnf` against brute force, untraced and traced (the
// traced circuit re-evaluated as well).
void ExpectScaledCountsMatchBruteForce(const CnfFormula& cnf,
                                       const WeightMap& weights) {
  BigRational expected = BruteForceWMC(cnf, weights);
  for (bool traced : {false, true}) {
    SCOPED_TRACE("traced=" + std::to_string(traced));
    nnf::CircuitBuilder builder(cnf.variable_count);
    DpllCounter::Options options;
    if (traced) options.trace_sink = &builder;
    DpllCounter counter(cnf, weights, options);
    EXPECT_EQ(counter.Count(), expected);
    if (traced) {
      EXPECT_EQ(builder.Finish().Evaluate(weights), expected);
    }
  }
}

TEST(DpllCounterTest, NonCoprimeDenominatorsWithZeroAndNegativeWeights) {
  std::mt19937_64 rng(48);
  for (int trial = 0; trial < 40; ++trial) {
    CnfFormula cnf = RandomCnf(&rng, 9, 4 + rng() % 12, 1 + rng() % 3);
    ExpectScaledCountsMatchBruteForce(
        cnf, NonCoprimeWeights(&rng, 9, /*allow_negative=*/true));
  }
}

TEST(DpllCounterTest, WeightsPastVariableCountStayOutOfTheScale) {
  // The map covers 9 variables but the CNF only 6: the rational extras
  // must neither count nor leak their denominators into the division.
  std::mt19937_64 rng(49);
  for (int trial = 0; trial < 20; ++trial) {
    CnfFormula cnf = RandomCnf(&rng, 6, 3 + rng() % 8, 1 + rng() % 3);
    WeightMap weights = NonCoprimeWeights(&rng, 6, /*allow_negative=*/true);
    weights.EnsureSize(9);
    weights.Set(6, BigRational::Fraction(1, 7), BigRational::Fraction(-2, 9));
    weights.Set(7, BigRational::Fraction(5, 11), BigRational(0));
    weights.Set(8, BigRational(3), BigRational::Fraction(1, 13));
    ExpectScaledCountsMatchBruteForce(cnf, weights);
  }
}

TEST(DpllCounterTest, RepeatedCountOnRationalWeightsIsStable) {
  // The cache holds scaled payloads and is refilled by every Count(); a
  // second count must divide back to the same value.
  CnfFormula cnf = PathCnf();
  std::mt19937_64 rng(50);
  WeightMap weights = NonCoprimeWeights(&rng, 16, /*allow_negative=*/true);
  BigRational expected = BruteForceWMC(cnf, weights);
  DpllCounter counter(cnf, weights);
  EXPECT_EQ(counter.Count(), expected);
  EXPECT_EQ(counter.Count(), expected);
  EXPECT_GT(counter.stats().cache_hits, 0u);
}

TEST(DpllCounterTest, GovernedRationalBoundsBracketTheExactCount) {
  // The bracket [0, Π(w + w̄)] is scaled with everything else, so after
  // the root division the bounds still sandwich the exact count.
  // Pinned exactly first: a connected two-clause CNF stopped before its
  // first decision brackets the count by [0, Π(w + w̄)].
  CnfFormula chain;
  chain.variable_count = 3;
  chain.clauses = {{MakeLit(0, true), MakeLit(1, true)},
                   {MakeLit(1, true), MakeLit(2, true)}};
  WeightMap chain_weights(3);
  chain_weights.Set(0, BigRational::Fraction(1, 4), BigRational::Fraction(5, 6));
  chain_weights.Set(1, BigRational::Fraction(3, 8), BigRational(2));
  chain_weights.Set(2, BigRational(0), BigRational::Fraction(7, 12));
  runtime::Budget stop_at_once;
  stop_at_once.SetMaxDecisions(0);
  DpllCounter::Options governed;
  governed.budget = &stop_at_once;
  DpllCounter::CountResult stopped =
      DpllCounter(chain, chain_weights, governed).CountBounded();
  EXPECT_EQ(stopped.outcome, DpllCounter::CountOutcome::kBounds);
  EXPECT_EQ(stopped.value, BigRational(0));
  EXPECT_EQ(stopped.upper, chain_weights.Get(0).Total() *
                               chain_weights.Get(1).Total() *
                               chain_weights.Get(2).Total());

  std::mt19937_64 rng(51);
  int bounded = 0;
  for (int trial = 0; trial < 12; ++trial) {
    CnfFormula cnf = RandomCnf(&rng, 14, 18 + rng() % 8, 3);
    WeightMap weights = NonCoprimeWeights(&rng, 14, /*allow_negative=*/false);
    BigRational exact = BruteForceWMC(cnf, weights);
    for (std::uint64_t cap : {0u, 1u, 3u, 8u}) {
      for (bool traced : {false, true}) {
        SCOPED_TRACE("cap=" + std::to_string(cap) +
                     " traced=" + std::to_string(traced));
        runtime::Budget budget;
        budget.SetMaxDecisions(cap);
        nnf::CircuitBuilder builder(cnf.variable_count);
        DpllCounter::Options options;
        options.budget = &budget;
        if (traced) options.trace_sink = &builder;
        DpllCounter counter(cnf, weights, options);
        DpllCounter::CountResult result = counter.CountBounded();
        switch (result.outcome) {
          case DpllCounter::CountOutcome::kExact:
            EXPECT_EQ(result.value, exact);
            EXPECT_EQ(result.upper, exact);
            break;
          case DpllCounter::CountOutcome::kBounds:
            ++bounded;
            EXPECT_FALSE(traced);
            EXPECT_LE(result.value, exact);
            EXPECT_LE(exact, result.upper);
            break;
          case DpllCounter::CountOutcome::kAborted:
            // Only a stopped trace may abort on non-negative weights.
            EXPECT_TRUE(traced);
            break;
        }
      }
    }
  }
  EXPECT_GT(bounded, 0);  // the caps really cut searches short
}

TEST(ComponentCacheTest, LookupInsertAndCollisionHandling) {
  ComponentCache cache(/*max_entries=*/2);
  ComponentKey a{1, 2, kComponentKeySeparator};
  ComponentKey b{3, 4, kComponentKeySeparator};
  std::uint64_t hash = HashComponentKey(a);
  EXPECT_EQ(cache.Lookup(a, hash), nullptr);
  cache.Insert(a, hash, BigInt(7));
  ASSERT_NE(cache.Lookup(a, hash), nullptr);
  EXPECT_EQ(cache.Lookup(a, hash)->value, BigInt(7));
  // Same hash, different key: counts a collision, reads as a miss.
  EXPECT_EQ(cache.Lookup(b, hash), nullptr);
  EXPECT_EQ(cache.collisions(), 1u);
  // The bound evicts the oldest entry.
  cache.Insert(ComponentKey{5}, HashComponentKey({5}), BigInt(1));
  cache.Insert(ComponentKey{6}, HashComponentKey({6}), BigInt(2));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup(a, hash), nullptr);  // oldest entry gone
}

TEST(ComponentCacheTest, CounterInvariantsAndAccounting) {
  // lookups / hits / insertions are first-class counters now (the stats
  // staleness fixed in this PR): every probe is a lookup, every probe is
  // at most one of {hit, collision}, and evictions never outrun
  // insertions.
  ComponentCache cache(/*max_entries=*/2);
  ComponentKey a{1, kComponentKeySeparator};
  ComponentKey b{2, kComponentKeySeparator};
  EXPECT_EQ(cache.Lookup(a, HashComponentKey(a)), nullptr);
  cache.Insert(a, HashComponentKey(a), BigInt(3));
  EXPECT_NE(cache.Lookup(a, HashComponentKey(a)), nullptr);
  cache.Insert(b, HashComponentKey(b), BigInt(4));
  cache.Insert(ComponentKey{3}, HashComponentKey({3}), BigInt(5));
  EXPECT_EQ(cache.lookups(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.insertions(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.hits() + cache.collisions(), cache.lookups());
  EXPECT_LE(cache.evictions(), cache.insertions());
  EXPECT_LE(cache.size(), cache.insertions() - cache.evictions());
}

TEST(ComponentCacheTest, RefreshedEntryMovesToTheBackOfTheEvictionOrder) {
  // Regression: an in-place replacement used to keep its original FIFO
  // slot, so a just-refreshed entry at the queue front was the next
  // victim. A refresh must count as the newest entry.
  ComponentCache cache(/*max_entries=*/2);
  ComponentKey a{1, kComponentKeySeparator};
  ComponentKey b{2, kComponentKeySeparator};
  ComponentKey c{3, kComponentKeySeparator};
  std::uint64_t hash_a = HashComponentKey(a);
  std::uint64_t hash_b = HashComponentKey(b);
  std::uint64_t hash_c = HashComponentKey(c);
  cache.Insert(a, hash_a, BigInt(1));
  cache.Insert(b, hash_b, BigInt(2));
  // Refresh a: eviction order is now b (oldest), a (newest).
  cache.Insert(a, hash_a, BigInt(1));
  cache.Insert(c, hash_c, BigInt(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup(b, hash_b), nullptr);  // the actual oldest
  ASSERT_NE(cache.Lookup(a, hash_a), nullptr);  // the refreshed survivor
  ASSERT_NE(cache.Lookup(c, hash_c), nullptr);
}

TEST(ComponentCacheTest, ByteOverflowAfterRefreshEvictsOthersNotItself) {
  // Regression for the byte-bound shape of the same bug: a replacement
  // that grows the entry past the byte bound used to run the overflow
  // loop with the refreshed entry still parked at the FIFO front — the
  // cache would evict the entry it had just paid to store and keep the
  // stale neighbors.
  ComponentKey a{1, kComponentKeySeparator};
  ComponentKey b{2, kComponentKeySeparator};
  BigInt small(1);
  // A value with real limb buffers, so the refresh genuinely grows.
  // FromString leaves growth slack in the limb buffer; HeapBytes() counts
  // capacity, so copy once to shrink to exact size — then the by-value
  // copy Insert stores accounts the same bytes this test computes below.
  const BigInt parsed = BigInt::FromString(std::string(120, '7'));
  BigInt big = parsed;
  ASSERT_GT(big.HeapBytes(), 0u);
  std::size_t bytes_a_small = ComponentCache::EntryBytes(a, small);
  std::size_t bytes_a_big = ComponentCache::EntryBytes(a, big);
  std::size_t bytes_b = ComponentCache::EntryBytes(b, small);
  ASSERT_GT(bytes_a_big, bytes_a_small);
  // Fits {a-small, b}, fits {a-big} alone, but not {a-big, b}.
  std::size_t max_bytes = bytes_a_big + bytes_b - 1;
  ASSERT_GE(max_bytes, bytes_a_small + bytes_b);
  ComponentCache cache(/*max_entries=*/16, max_bytes);
  std::uint64_t hash_a = HashComponentKey(a);
  std::uint64_t hash_b = HashComponentKey(b);
  cache.Insert(a, hash_a, small);
  cache.Insert(b, hash_b, small);
  EXPECT_EQ(cache.size(), 2u);
  // The refresh overflows the byte bound; the overflow loop must evict
  // b (the oldest), never the entry this insertion just refreshed.
  cache.Insert(a, hash_a, big);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup(b, hash_b), nullptr);
  ASSERT_NE(cache.Lookup(a, hash_a), nullptr);
  EXPECT_EQ(cache.Lookup(a, hash_a)->value, big);
  EXPECT_LE(cache.bytes(), max_bytes);
}

TEST(CompactCnfTest, LiteralEncodingRoundTrip) {
  using prop::LitPositive;
  using prop::LitVariable;
  using prop::MakeLit;
  using prop::NegateLit;
  prop::Lit lit = MakeLit(7, true);
  EXPECT_EQ(LitVariable(lit), 7u);
  EXPECT_TRUE(LitPositive(lit));
  EXPECT_EQ(LitVariable(NegateLit(lit)), 7u);
  EXPECT_FALSE(LitPositive(NegateLit(lit)));
  EXPECT_EQ(NegateLit(NegateLit(lit)), lit);
}

TEST(CompactCnfTest, OccurrenceListsMatchClauses) {
  CnfFormula cnf;
  cnf.variable_count = 3;
  cnf.clauses = {{MakeLit(0, true), MakeLit(1, false)},
                 {MakeLit(1, false), MakeLit(2, true)},
                 {MakeLit(0, true)}};
  prop::CompactCnf compact = prop::CompactCnf::Build(cnf);
  EXPECT_EQ(compact.clause_count(), 3u);
  EXPECT_EQ(compact.ClauseSize(0), 2u);
  EXPECT_EQ(compact.ClauseSize(2), 1u);
  auto occ_x0 = compact.Occurrences(prop::MakeLit(0, true));
  ASSERT_EQ(occ_x0.size(), 2u);
  EXPECT_EQ(occ_x0[0], 0u);
  EXPECT_EQ(occ_x0[1], 2u);
  auto occ_not_x1 = compact.Occurrences(prop::MakeLit(1, false));
  ASSERT_EQ(occ_not_x1.size(), 2u);
  EXPECT_TRUE(compact.Mentions(2));
  EXPECT_EQ(compact.Occurrences(prop::MakeLit(2, false)).size(), 0u);
  EXPECT_EQ(compact.VariableOccurrences(1).size(), 2u);
}

TEST(DpllSatTest, SatisfiabilityBasics) {
  CnfFormula sat;
  sat.variable_count = 2;
  sat.clauses = {{MakeLit(0, true), MakeLit(1, true)},
                 {MakeLit(0, false)}};
  EXPECT_TRUE(DpllCounter::IsSatisfiable(sat));

  CnfFormula unsat;
  unsat.variable_count = 1;
  unsat.clauses = {{MakeLit(0, true)}, {MakeLit(0, false)}};
  EXPECT_FALSE(DpllCounter::IsSatisfiable(unsat));

  CnfFormula empty_clause;
  empty_clause.variable_count = 2;
  empty_clause.clauses = {{MakeLit(0, true), MakeLit(1, true)}, {}};
  EXPECT_FALSE(DpllCounter::IsSatisfiable(empty_clause));

  CnfFormula no_clauses;
  no_clauses.variable_count = 2;
  EXPECT_TRUE(DpllCounter::IsSatisfiable(no_clauses));
}

TEST(DpllSatTest, AgreesWithCountOnRandomInstances) {
  std::mt19937_64 rng(46);
  for (int trial = 0; trial < 100; ++trial) {
    CnfFormula cnf = RandomCnf(&rng, 5, 4 + rng() % 10, 2);
    bool sat = DpllCounter::IsSatisfiable(cnf);
    BigRational count = CountWeightedModels(cnf, WeightMap(5));
    EXPECT_EQ(sat, !count.IsZero()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace swfomc::wmc
