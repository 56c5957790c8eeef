#include "grounding/grounded_wfomc.h"

#include <gtest/gtest.h>

#include "grounding/lineage.h"
#include "logic/parser.h"
#include "numeric/combinatorics.h"
#include "prop/prop_formula.h"

namespace swfomc::grounding {
namespace {

using numeric::BigInt;
using numeric::BigRational;

TEST(TupleIndexTest, Bijection) {
  logic::Vocabulary vocab;
  vocab.AddRelation("R", 2);
  vocab.AddRelation("U", 1);
  vocab.AddRelation("P", 0);
  TupleIndex index(vocab, 3);
  EXPECT_EQ(index.TupleCount(), 13u);
  for (prop::VarId v = 0; v < index.TupleCount(); ++v) {
    TupleIndex::GroundAtom atom = index.AtomOf(v);
    EXPECT_EQ(index.VariableOf(atom.relation, atom.args), v);
  }
}

TEST(LineageTest, MatchesSectionTwoDefinition) {
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("forall x exists y R(x,y)", &vocab);
  TupleIndex index(vocab, 2);
  prop::PropFormula lineage = GroundLineage(f, index);
  // (R(0,0) | R(0,1)) & (R(1,0) | R(1,1))
  EXPECT_EQ(lineage->kind(), prop::PropKind::kAnd);
  EXPECT_EQ(lineage->children().size(), 2u);
  EXPECT_EQ(lineage->children()[0]->kind(), prop::PropKind::kOr);
}

TEST(LineageTest, GroundEqualityFolds) {
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("forall x forall y (x = y | R(x,y))",
                                  &vocab);
  TupleIndex index(vocab, 2);
  prop::PropFormula lineage = GroundLineage(f, index);
  // Diagonal pairs fold to true; the off-diagonal R atoms remain.
  EXPECT_EQ(lineage->kind(), prop::PropKind::kAnd);
  EXPECT_EQ(lineage->children().size(), 2u);
}

TEST(LineageTest, UnboundVariableThrows) {
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("R(x)", &vocab);
  TupleIndex index(vocab, 2);
  EXPECT_THROW(GroundLineage(f, index), std::invalid_argument);
}

TEST(GroundedFOMCTest, PaperClosedFormForallExists) {
  // FOMC(∀x∃y R(x,y), n) = (2^n - 1)^n  (Section 1).
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("forall x exists y R(x,y)", &vocab);
  for (std::uint64_t n = 1; n <= 4; ++n) {
    BigInt expected =
        BigInt::Pow(BigInt::Pow(BigInt(2), n) - BigInt(1), n);
    EXPECT_EQ(GroundedFOMC(f, vocab, n), expected) << n;
  }
}

TEST(GroundedFOMCTest, ExistsUnary) {
  // FOMC(∃y S(y), n) = 2^n - 1.
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("exists y S(y)", &vocab);
  for (std::uint64_t n = 0; n <= 6; ++n) {
    BigInt expected = BigInt::Pow(BigInt(2), n) - BigInt(1);
    EXPECT_EQ(GroundedFOMC(f, vocab, n), expected) << n;
  }
}

TEST(GroundedWFOMCTest, WeightedExistsUnaryClosedForm) {
  // WFOMC(∃y S(y), n, w, w̄) = (w + w̄)^n - w̄^n  (Section 2).
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("exists y S(y)", &vocab);
  vocab.SetWeights(vocab.Require("S"), BigRational(3),
                   BigRational::Fraction(1, 2));
  for (std::uint64_t n = 1; n <= 5; ++n) {
    BigRational expected =
        BigRational::Pow(BigRational::Fraction(7, 2),
                         static_cast<std::int64_t>(n)) -
        BigRational::Pow(BigRational::Fraction(1, 2),
                         static_cast<std::int64_t>(n));
    EXPECT_EQ(GroundedWFOMC(f, vocab, n), expected) << n;
  }
}

TEST(GroundedWFOMCTest, WeightedForallExistsClosedForm) {
  // WFOMC(∀x∃y R(x,y), n) = ((w + w̄)^n - w̄^n)^n  (Section 2).
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("forall x exists y R(x,y)", &vocab);
  vocab.SetWeights(vocab.Require("R"), BigRational(2), BigRational(3));
  for (std::uint64_t n = 1; n <= 3; ++n) {
    BigRational inner =
        BigRational::Pow(BigRational(5), static_cast<std::int64_t>(n)) -
        BigRational::Pow(BigRational(3), static_cast<std::int64_t>(n));
    EXPECT_EQ(GroundedWFOMC(f, vocab, n),
              BigRational::Pow(inner, static_cast<std::int64_t>(n)))
        << n;
  }
}

TEST(GroundedWFOMCTest, Table1ClosedForm) {
  // Table 1: FOMC(∀x∀y(R(x)|S(x,y)|T(y)), n) = Σ_{k,m} C(n,k)C(n,m) 2^{n²-km}.
  logic::Vocabulary vocab;
  logic::Formula f =
      logic::Parse("forall x forall y (R(x) | S(x,y) | T(y))", &vocab);
  for (std::uint64_t n = 1; n <= 3; ++n) {
    BigInt expected(0);
    for (std::uint64_t k = 0; k <= n; ++k) {
      for (std::uint64_t m = 0; m <= n; ++m) {
        expected += numeric::Binomial(n, k) * numeric::Binomial(n, m) *
                    BigInt::Pow(BigInt(2), n * n - k * m);
      }
    }
    EXPECT_EQ(GroundedFOMC(f, vocab, n), expected) << n;
  }
}

TEST(GroundedWFOMCTest, AgreesWithExhaustiveOnRandomSentences) {
  logic::Vocabulary vocab;
  const char* sentences[] = {
      "forall x forall y (R(x,y) => R(y,x))",
      "forall x (U(x) | exists y R(x,y))",
      "exists x exists y (R(x,y) & !R(y,x))",
      "forall x exists y (R(x,y) & U(y))",
      "forall x (U(x) <=> exists y R(y,x))",
  };
  logic::Vocabulary weighted;
  weighted.AddRelation("R", 2, BigRational(2), BigRational(1));
  weighted.AddRelation("U", 1, BigRational::Fraction(1, 3), BigRational(1));
  for (const char* text : sentences) {
    logic::Formula f = logic::ParseStrict(text, weighted);
    for (std::uint64_t n = 1; n <= 2; ++n) {
      EXPECT_EQ(GroundedWFOMC(f, weighted, n),
                ExhaustiveWFOMC(f, weighted, n))
          << text << " n=" << n;
    }
  }
}

TEST(GroundedWFOMCTest, UnsatisfiableSentenceCountsZero) {
  logic::Vocabulary vocab;
  logic::Formula f =
      logic::Parse("(forall x U(x)) & (exists x !U(x))", &vocab);
  EXPECT_EQ(GroundedFOMC(f, vocab, 3), BigInt(0));
}

TEST(GroundedWFOMCTest, TautologyCountsAllWorlds) {
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("forall x (U(x) | !U(x))", &vocab);
  // 2^{|Tup(n)|} = 2^n.
  EXPECT_EQ(GroundedFOMC(f, vocab, 5), BigInt::Pow(BigInt(2), 5));
}

TEST(GroundedProbabilityTest, MatchesDefinition) {
  logic::Vocabulary vocab;
  vocab.AddRelation("S", 1, BigRational(1), BigRational(1));
  logic::Formula f = logic::ParseStrict("exists y S(y)", vocab);
  // Pr = (2^n - 1) / 2^n with weights (1,1) i.e. p = 1/2.
  EXPECT_EQ(GroundedProbability(f, vocab, 3),
            BigRational::Fraction(7, 8));
}

TEST(GroundedWFOMCAsymmetricTest, PerTupleWeights) {
  // Σ over worlds satisfying ∃y S(y) of per-tuple weights: with
  // w(S(0)) = 2, w(S(1)) = 3 and w̄ = 1:
  // total = (2+1)(3+1) - 1 = 11 (subtract the empty world).
  logic::Vocabulary vocab;
  vocab.AddRelation("S", 1);
  logic::Formula f = logic::ParseStrict("exists y S(y)", vocab);
  auto weights = [](const TupleIndex& index,
                    prop::VarId v) -> wmc::VariableWeights {
    TupleIndex::GroundAtom atom = index.AtomOf(v);
    return wmc::VariableWeights{
        BigRational(static_cast<std::int64_t>(atom.args[0] + 2)),
        BigRational(1)};
  };
  EXPECT_EQ(GroundedWFOMCAsymmetric(f, vocab, 2, weights), BigRational(11));
}

TEST(GroundedWFOMCTest, EmptyDomain) {
  logic::Vocabulary vocab;
  logic::Formula forall = logic::Parse("forall x U(x)", &vocab);
  EXPECT_EQ(GroundedFOMC(forall, vocab, 0), BigInt(1));
  logic::Formula exists = logic::Parse("exists x U(x)", &vocab);
  EXPECT_EQ(GroundedFOMC(exists, vocab, 0), BigInt(0));
}

TEST(GroundedWFOMCTest, StatsReporting) {
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("forall x exists y R(x,y)", &vocab);
  wmc::DpllCounter::Stats stats;
  GroundedWFOMC(f, vocab, 3, {}, &stats);
  EXPECT_GT(stats.decisions + stats.unit_propagations, 0u);
}

TEST(TupleIndexTest, TooManyTuplesThrowsPromptly) {
  // n^arity past 2^64 - 1 once wrapped (2^64 to 0, so the index held one
  // tuple), and arity 5,000,000,000 looped for seconds before answering.
  for (std::size_t arity : {std::size_t{33}, std::size_t{63},
                            std::size_t{64}, std::size_t{5'000'000'000}}) {
    logic::Vocabulary vocab;
    vocab.AddRelation("S", arity);
    EXPECT_THROW(TupleIndex(vocab, 2), std::invalid_argument) << arity;
  }
  // The 32-bit running total binds across relations too.
  logic::Vocabulary vocab;
  vocab.AddRelation("R", 31);
  vocab.AddRelation("S", 31);
  EXPECT_EQ(TupleIndex(vocab, 1).TupleCount(), 2u);
  EXPECT_THROW(TupleIndex(vocab, 2), std::invalid_argument);
  EXPECT_EQ(TupleIndex(logic::Vocabulary(), 2).TupleCount(), 0u);
}

}  // namespace
}  // namespace swfomc::grounding
