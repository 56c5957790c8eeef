// WalkSAT / SampleSAT and the MC-SAT MLN sampler (the approximate
// baseline of Section 1, compared against exact inference).

#include "mcsat/mcsat.h"

#include <gtest/gtest.h>

#include <map>

#include "logic/parser.h"
#include "mcsat/walksat.h"
#include "logic/evaluate.h"
#include "mln/reduction.h"

namespace swfomc::mcsat {
namespace {

using numeric::BigRational;
using prop::Clause;
using prop::CnfFormula;

CnfFormula MakeCnf(std::uint32_t variables,
                   std::vector<std::vector<int>> clauses) {
  // DIMACS-ish: positive int v means variable v-1 positive.
  CnfFormula cnf;
  cnf.variable_count = variables;
  for (const auto& clause : clauses) {
    Clause c;
    for (int lit : clause) {
      c.push_back(prop::MakeLit(static_cast<prop::VarId>(std::abs(lit) - 1),
                                lit > 0));
    }
    cnf.clauses.push_back(std::move(c));
  }
  return cnf;
}

TEST(WalkSatTest, SolvesSimpleSatisfiable) {
  CnfFormula cnf = MakeCnf(3, {{1, 2}, {-1, 3}, {-2, -3}, {1, -3}});
  WalkSat solver(cnf, {}, /*seed=*/7);
  auto solution = solver.Solve();
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(cnf.IsSatisfiedBy(*solution));
}

TEST(WalkSatTest, GivesUpOnUnsatisfiable) {
  // x & !x, small budget: must return nullopt, not loop forever.
  CnfFormula cnf = MakeCnf(1, {{1}, {-1}});
  WalkSat solver(cnf, {.noise = 0.5, .max_flips = 200, .max_tries = 3},
                 /*seed=*/7);
  EXPECT_FALSE(solver.Solve().has_value());
}

TEST(WalkSatTest, EmptyFormulaIsTriviallySat) {
  CnfFormula cnf;
  cnf.variable_count = 4;
  WalkSat solver(cnf, {}, /*seed=*/1);
  auto solution = solver.Solve();
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->size(), 4u);
}

TEST(WalkSatTest, SolvesPigeonholeSizedInstance) {
  // A denser satisfiable instance: 8 variables, implication chain plus a
  // few cross clauses.
  std::vector<std::vector<int>> clauses;
  for (int i = 1; i < 8; ++i) clauses.push_back({-i, i + 1});
  clauses.push_back({1, 5});
  clauses.push_back({-8, 2});
  CnfFormula cnf = MakeCnf(8, clauses);
  WalkSat solver(cnf, {}, /*seed=*/99);
  auto solution = solver.Solve();
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(cnf.IsSatisfiedBy(*solution));
}

TEST(SampleSatTest, SamplesAreSolutions) {
  CnfFormula cnf = MakeCnf(4, {{1, 2}, {-2, 3}, {-3, -4}});
  WalkSat solver(cnf, {}, /*seed=*/11);
  for (int i = 0; i < 20; ++i) {
    auto sample = solver.Sample();
    ASSERT_TRUE(sample.has_value());
    EXPECT_TRUE(cnf.IsSatisfiedBy(*sample));
  }
}

TEST(SampleSatTest, CoversAllSolutionsOfTinyInstance) {
  // x1 | x2 has three solutions; repeated sampling should find each of
  // them (coverage, not uniformity — SampleSAT guarantees neither, which
  // is the paper's criticism, but coverage failure on 3 solutions in 300
  // draws would indicate a broken sampler).
  CnfFormula cnf = MakeCnf(2, {{1, 2}});
  WalkSat solver(cnf, {}, /*seed=*/5);
  std::map<std::vector<bool>, int> seen;
  for (int i = 0; i < 300; ++i) {
    auto sample = solver.Sample();
    ASSERT_TRUE(sample.has_value());
    ++seen[*sample];
  }
  EXPECT_EQ(seen.size(), 3u);
}

// --- MC-SAT on MLNs -----------------------------------------------------

mln::MarkovLogicNetwork SpouseNetwork() {
  logic::Vocabulary vocab;
  vocab.AddRelation("Spouse", 2);
  vocab.AddRelation("Female", 1);
  vocab.AddRelation("Male", 1);
  mln::MarkovLogicNetwork network(std::move(vocab));
  network.AddSoft(BigRational(3), "(Spouse(x,y) & Female(x)) -> Male(y)");
  return network;
}

McSatOptions FastOptions(std::uint64_t seed, std::uint64_t samples = 400) {
  McSatOptions options;
  options.seed = seed;
  options.burn_in = 50;
  options.samples = samples;
  options.walksat.max_flips = 2000;
  options.walksat.max_tries = 5;
  return options;
}

TEST(McSatTest, GroundsSoftConstraints) {
  mln::MarkovLogicNetwork network = SpouseNetwork();
  McSatSampler sampler(network, /*domain_size=*/2, FastOptions(1));
  // One soft constraint over (x, y) in [2]^2.
  EXPECT_EQ(sampler.ground_soft_count(), 4u);
  EXPECT_EQ(sampler.hard_clause_count(), 0u);
}

TEST(McSatTest, HardConstraintsHoldInEverySample) {
  logic::Vocabulary vocab;
  vocab.AddRelation("E", 2);
  mln::MarkovLogicNetwork network(std::move(vocab));
  network.AddHard("forall x !E(x,x)");
  network.AddSoft(BigRational(2), "E(x,y) -> E(y,x)");
  McSatSampler sampler(network, 2, FastOptions(3, 100));
  logic::Formula no_loops = logic::ParseStrict(
      "forall x !E(x,x)", network.vocabulary());
  for (const logic::Structure& world : sampler.DrawSamples()) {
    EXPECT_TRUE(logic::Evaluate(world, no_loops));
  }
}

TEST(McSatTest, NonPositiveWeightsRejectedUpstream) {
  // MarkovLogicNetwork::AddSoft already rejects w <= 0, so the sampler
  // never sees one; weight w = 1 is accepted and must be a no-op.
  logic::Vocabulary vocab;
  vocab.AddRelation("U", 1);
  mln::MarkovLogicNetwork network(std::move(vocab));
  EXPECT_THROW(network.AddSoft(BigRational(-2), "U(x)"),
               std::invalid_argument);
  network.AddSoft(BigRational(1), "U(x)");
  McSatSampler sampler(network, 2, FastOptions(1));
  EXPECT_EQ(sampler.ground_soft_count(), 0u);
}

TEST(McSatTest, UnsatisfiableHardConstraintsThrow) {
  logic::Vocabulary vocab;
  vocab.AddRelation("U", 1);
  mln::MarkovLogicNetwork network(std::move(vocab));
  network.AddHard("forall x (U(x) & !U(x))");
  McSatSampler sampler(network, 2, FastOptions(1, 10));
  EXPECT_THROW(sampler.DrawSamples(), std::runtime_error);
}

TEST(McSatTest, ConvergesToExactOnSpouseNetwork) {
  mln::MarkovLogicNetwork network = SpouseNetwork();
  logic::Formula query = logic::ParseStrict(
      "exists x Female(x)", network.vocabulary());
  double exact = network.BruteForceProbability(query, 2).ToDouble();
  McSatSampler sampler(network, 2, FastOptions(17, 1500));
  double estimate = sampler.EstimateProbability(query);
  EXPECT_NEAR(estimate, exact, 0.1);
}

TEST(McSatTest, SubUnitWeightsAreNormalized) {
  // (1/2, U(x)) ≡ (2, !U(x)): the sampler must accept w < 1 and converge
  // to the same exact answer.
  logic::Vocabulary vocab;
  vocab.AddRelation("U", 1);
  mln::MarkovLogicNetwork network(std::move(vocab));
  network.AddSoft(BigRational::Fraction(1, 2), "U(x)");
  logic::Formula query =
      logic::ParseStrict("exists x U(x)", network.vocabulary());
  double exact = network.BruteForceProbability(query, 2).ToDouble();
  McSatSampler sampler(network, 2, FastOptions(23, 1500));
  EXPECT_NEAR(sampler.EstimateProbability(query), exact, 0.1);
}

// Seed sweep: the estimator is stochastic but must stay in a sane band
// across seeds (a systematically biased or broken chain drifts far off).
class McSatSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McSatSeedSweep, EstimateWithinBand) {
  mln::MarkovLogicNetwork network = SpouseNetwork();
  logic::Formula query = logic::ParseStrict(
      "forall y Male(y)", network.vocabulary());
  double exact = network.BruteForceProbability(query, 2).ToDouble();
  McSatSampler sampler(network, 2, FastOptions(GetParam(), 800));
  EXPECT_NEAR(sampler.EstimateProbability(query), exact, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, McSatSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace swfomc::mcsat
