#include "prop/prop_formula.h"

#include <random>

#include <gtest/gtest.h>

#include "prop/cnf.h"
#include "prop/tseitin.h"
#include "test_util.h"

namespace swfomc::prop {
namespace {

TEST(PropFormulaTest, ConstantFolding) {
  EXPECT_EQ(PropAnd(PropVar(0), PropTrue())->kind(), PropKind::kVar);
  EXPECT_EQ(PropAnd(PropVar(0), PropFalse())->kind(), PropKind::kFalse);
  EXPECT_EQ(PropOr(PropVar(0), PropTrue())->kind(), PropKind::kTrue);
  EXPECT_EQ(PropOr(PropVar(0), PropFalse())->kind(), PropKind::kVar);
  EXPECT_EQ(PropNot(PropNot(PropVar(3)))->kind(), PropKind::kVar);
}

TEST(PropFormulaTest, Flattening) {
  PropFormula f = PropAnd(PropAnd(PropVar(0), PropVar(1)), PropVar(2));
  EXPECT_EQ(f->children().size(), 3u);
  PropFormula g = PropOr({PropOr(PropVar(0), PropVar(1)), PropVar(2)});
  EXPECT_EQ(g->children().size(), 3u);
}

TEST(PropFormulaTest, EvaluateProp) {
  // (x0 | !x1) & x2
  PropFormula f =
      PropAnd(PropOr(PropVar(0), PropNot(PropVar(1))), PropVar(2));
  EXPECT_TRUE(EvaluateProp(f, {true, true, true}));
  EXPECT_TRUE(EvaluateProp(f, {false, false, true}));
  EXPECT_FALSE(EvaluateProp(f, {false, true, true}));
  EXPECT_FALSE(EvaluateProp(f, {true, true, false}));
}

TEST(PropFormulaTest, VariableUpperBound) {
  EXPECT_EQ(VariableUpperBound(PropTrue()), 0u);
  EXPECT_EQ(VariableUpperBound(PropVar(7)), 8u);
  EXPECT_EQ(VariableUpperBound(PropAnd(PropVar(2), PropNot(PropVar(9)))),
            10u);
}

TEST(PropFormulaTest, ToString) {
  PropFormula f = PropAnd(PropVar(0), PropNot(PropVar(1)));
  EXPECT_EQ(PropToString(f), "(x0 & !x1)");
}

TEST(CnfTest, IsSatisfiedBy) {
  CnfFormula cnf;
  cnf.variable_count = 2;
  cnf.clauses = {{MakeLit(0, true), MakeLit(1, false)}};  // x0 | !x1
  EXPECT_TRUE(cnf.IsSatisfiedBy({true, true}));
  EXPECT_TRUE(cnf.IsSatisfiedBy({false, false}));
  EXPECT_FALSE(cnf.IsSatisfiedBy({false, true}));
}

TEST(CnfTest, NormalizeDropsTautologiesAndDuplicates) {
  CnfFormula cnf;
  cnf.variable_count = 2;
  cnf.clauses = {
      {MakeLit(0, true), MakeLit(0, false)},                    // tautology
      {MakeLit(1, true), MakeLit(0, true)},                     // kept
      {MakeLit(0, true), MakeLit(1, true)},                     // duplicate
      {MakeLit(1, true), MakeLit(1, true), MakeLit(0, true)}};  // dup + dup
  NormalizeCnf(&cnf);
  EXPECT_EQ(cnf.clauses.size(), 1u);
  EXPECT_EQ(cnf.clauses[0].size(), 2u);
}

// Tseitin must preserve the *number of models projected onto original
// variables* — each original model extends uniquely.
TEST(TseitinTest, CountPreservation) {
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 60; ++trial) {
    // Random formula over 4 variables.
    PropFormula f = testutil::RandomPropFormula(&rng, 3, 4);
    TseitinResult tseitin = TseitinTransform(f, 4);

    // Count models of f directly.
    int direct = 0;
    for (std::uint64_t mask = 0; mask < 16; ++mask) {
      std::vector<bool> assignment(4);
      for (int i = 0; i < 4; ++i) assignment[i] = (mask >> i) & 1;
      if (EvaluateProp(f, assignment)) ++direct;
    }
    // Count models of the CNF over all (original + auxiliary) variables.
    int cnf_models = 0;
    std::uint32_t total = tseitin.cnf.variable_count;
    ASSERT_LE(total, 20u);
    for (std::uint64_t mask = 0; mask < (1ULL << total); ++mask) {
      std::vector<bool> assignment(total);
      for (std::uint32_t i = 0; i < total; ++i) assignment[i] = (mask >> i) & 1;
      if (tseitin.cnf.IsSatisfiedBy(assignment)) ++cnf_models;
    }
    // Each of the 2^4 original assignments... only models of f extend, each
    // in exactly one way.
    EXPECT_EQ(cnf_models, direct) << PropToString(f);
  }
}

TEST(TseitinTest, ConstantRoots) {
  TseitinResult t_true = TseitinTransform(PropTrue(), 3);
  EXPECT_TRUE(t_true.cnf.clauses.empty());
  EXPECT_EQ(t_true.cnf.variable_count, 3u);

  TseitinResult t_false = TseitinTransform(PropFalse(), 3);
  ASSERT_EQ(t_false.cnf.clauses.size(), 1u);
  EXPECT_TRUE(t_false.cnf.clauses[0].empty());
}

TEST(TseitinTest, SingleLiteralNeedsNoAuxiliaries) {
  TseitinResult t = TseitinTransform(PropNot(PropVar(1)), 2);
  EXPECT_EQ(t.cnf.variable_count, 2u);
  ASSERT_EQ(t.cnf.clauses.size(), 1u);
  EXPECT_EQ(t.cnf.clauses[0].size(), 1u);
  EXPECT_FALSE(LitPositive(t.cnf.clauses[0][0]));
}

TEST(TseitinTest, SharedSubformulaEncodedOnce) {
  PropFormula shared = PropAnd(PropVar(0), PropVar(1));
  PropFormula f = PropOr(shared, PropAnd(shared, PropVar(2)));
  TseitinResult t = TseitinTransform(f, 3);
  // Aux vars: shared, the inner And, the outer Or -> exactly 3.
  EXPECT_EQ(t.cnf.variable_count, 6u);
}

}  // namespace
}  // namespace swfomc::prop
