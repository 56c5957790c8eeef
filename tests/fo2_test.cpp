// Tests for the Appendix C lifted FO² algorithm: normal form construction
// and the cell decomposition, validated exactly against the grounded
// engine and against the paper's closed forms.

#include "fo2/cell_algorithm.h"

#include <optional>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "fo2/fo2_normal_form.h"
#include "grounding/grounded_wfomc.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/transform.h"
#include "numeric/combinatorics.h"

namespace swfomc::fo2 {
namespace {

using numeric::BigInt;
using numeric::BigRational;

TEST(UniversalFormTest, MatrixIsQuantifierFreeOverXY) {
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("forall x exists y R(x,y)", &vocab);
  UniversalForm form = ToUniversalForm(f, vocab);
  EXPECT_FALSE(logic::ContainsQuantifier(form.matrix));
  for (const std::string& v : logic::FreeVariables(form.matrix)) {
    EXPECT_TRUE(v == UniversalForm::x() || v == UniversalForm::y()) << v;
  }
  // Skolem predicates carry weight (1, -1).
  bool has_skolem = false;
  for (logic::RelationId id = 0; id < form.vocabulary.size(); ++id) {
    if (form.vocabulary.negative_weight(id) == BigRational(-1)) {
      has_skolem = true;
    }
  }
  EXPECT_TRUE(has_skolem);
}

TEST(UniversalFormTest, RejectsThreeVariables) {
  logic::Vocabulary vocab;
  logic::Formula f =
      logic::Parse("forall x forall y forall z (R(x,y) | R(y,z))", &vocab);
  EXPECT_THROW(ToUniversalForm(f, vocab), std::invalid_argument);
}

TEST(UniversalFormTest, RejectsHighArity) {
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("forall x forall y T(x,y,x)", &vocab);
  EXPECT_THROW(ToUniversalForm(f, vocab), std::invalid_argument);
}

TEST(UniversalFormTest, RejectsConstantsAndFreeVariables) {
  logic::Vocabulary vocab;
  logic::Formula with_const = logic::Parse("forall x R(x,0)", &vocab);
  EXPECT_THROW(ToUniversalForm(with_const, vocab), std::invalid_argument);
  logic::Formula open = logic::Parse("R(x,y)", &vocab);
  EXPECT_THROW(ToUniversalForm(open, vocab), std::invalid_argument);
}

TEST(UniversalFormTest, RefusesWhatLiftedObstacleNames) {
  // ToUniversalForm has no fragment check of its own: its message is the
  // router's reason.
  const char* outside[] = {"R(x,y)", "forall x forall y forall z R(x,y,z)",
                           "forall x T(x,x,x)", "forall x R(x,0)"};
  for (const char* text : outside) {
    logic::Vocabulary vocab;
    logic::Formula f = logic::Parse(text, &vocab);
    std::optional<std::string_view> obstacle = LiftedObstacle(f, vocab);
    ASSERT_TRUE(obstacle.has_value()) << text;
    try {
      ToUniversalForm(f, vocab);
      FAIL() << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(error.what(), "ToUniversalForm: " + std::string(*obstacle));
    }
  }
}

// The decisive property test: lifted == grounded for a basket of FO²
// sentences with nontrivial weights, for n = 0..3.
TEST(LiftedWfomcTest, AgreesWithGroundedEngine) {
  const char* sentences[] = {
      "forall x forall y (R(x) | S(x,y) | T(y))",  // Table 1
      "forall x exists y S(x,y)",
      "exists y R(y)",
      "exists x exists y S(x,y)",
      "forall x forall y (S(x,y) => S(y,x))",
      "forall x (R(x) <=> exists y S(x,y))",
      "forall x exists y (S(x,y) & R(y))",
      "exists x forall y (S(x,y) | T(y))",
      "forall x forall y (S(x,y) => x = y)",
      "forall x S(x,x)",
      "forall x exists y (S(x,y) & x != y)",
      "(exists x R(x)) => (forall x exists y S(x,y))",
  };
  logic::Vocabulary vocab;
  vocab.AddRelation("R", 1, BigRational(2), BigRational(1));
  vocab.AddRelation("S", 2, BigRational::Fraction(1, 2), BigRational(1));
  vocab.AddRelation("T", 1, BigRational(1), BigRational(3));
  for (const char* text : sentences) {
    logic::Formula f = logic::ParseStrict(text, vocab);
    for (std::uint64_t n = 0; n <= 3; ++n) {
      BigRational lifted = LiftedWFOMC(f, vocab, n);
      BigRational grounded = grounding::GroundedWFOMC(f, vocab, n);
      EXPECT_EQ(lifted, grounded) << text << " at n=" << n;
    }
  }
}

TEST(LiftedWfomcTest, UnweightedClosedForms) {
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("forall x exists y R(x,y)", &vocab);
  for (std::uint64_t n = 1; n <= 8; ++n) {
    BigInt expected = BigInt::Pow(BigInt::Pow(BigInt(2), n) - BigInt(1), n);
    EXPECT_EQ(LiftedFOMC(f, vocab, n), expected) << n;
  }
}

TEST(LiftedWfomcTest, Table1FormulaMatchesClosedFormLargerN) {
  logic::Vocabulary vocab;
  logic::Formula f =
      logic::Parse("forall x forall y (R(x) | S(x,y) | T(y))", &vocab);
  for (std::uint64_t n = 1; n <= 8; ++n) {
    BigInt expected(0);
    for (std::uint64_t k = 0; k <= n; ++k) {
      for (std::uint64_t m = 0; m <= n; ++m) {
        expected += numeric::Binomial(n, k) * numeric::Binomial(n, m) *
                    BigInt::Pow(BigInt(2), n * n - k * m);
      }
    }
    EXPECT_EQ(LiftedFOMC(f, vocab, n), expected) << n;
  }
}

TEST(LiftedWfomcTest, AppendixCExampleSymmetricDisjunction) {
  // ϕ* = ∀x∀y (R(x,y) | T(x,y)) & (R(x,y) | T(y,x)): Appendix C computes
  // p1^{n(n-1)/2} p2^n with p1 over pairs and p2 over the diagonal.
  // With weights (1,1): per unordered pair {a,b} there are 16 assignments
  // to R(a,b),R(b,a),T(a,b),T(b,a); the constraint for the pair is
  // (R(a,b)|T(a,b)) & (R(a,b)|T(b,a)) & (R(b,a)|T(b,a)) & (R(b,a)|T(a,b));
  // count satisfying: R(a,b)&R(b,a) free T: 4; R(a,b),!R(b,a): T(b,a)&T(a,b)
  // forced: 1; symmetric 1; !R&!R: T both forced: 1 -> 7.
  // Diagonal: (R(c,c)|T(c,c)) -> 3.
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse(
      "forall x forall y ((R(x,y) | T(x,y)) & (R(x,y) | T(y,x)))", &vocab);
  for (std::uint64_t n = 1; n <= 6; ++n) {
    BigInt expected = BigInt::Pow(BigInt(7), n * (n - 1) / 2) *
                      BigInt::Pow(BigInt(3), n);
    EXPECT_EQ(LiftedFOMC(f, vocab, n), expected) << n;
  }
}

TEST(LiftedWfomcTest, ZeroAryShannonExpansion) {
  logic::Vocabulary vocab;
  vocab.AddRelation("P", 0, BigRational(5), BigRational(1));
  vocab.AddRelation("U", 1, BigRational(1), BigRational(1));
  logic::Formula f = logic::ParseStrict("P => forall x U(x)", vocab);
  for (std::uint64_t n = 1; n <= 3; ++n) {
    EXPECT_EQ(LiftedWFOMC(f, vocab, n),
              grounding::GroundedWFOMC(f, vocab, n))
        << n;
  }
}

TEST(LiftedWfomcTest, CellAlgorithmRejectsTheEmptyDomain) {
  // The normal form preserves WFOMC only over non-empty domains, so the
  // cell algorithm refuses n = 0 and LiftedWFOMC counts it directly.
  logic::Vocabulary vocab;
  vocab.AddRelation("U", 1, BigRational(2), BigRational(3));
  logic::Formula f = logic::ParseStrict("exists x U(x)", vocab);
  UniversalForm form = ToUniversalForm(f, vocab);
  EXPECT_THROW(CellAlgorithmWFOMC(form, 0, nullptr), std::invalid_argument);
  EXPECT_EQ(LiftedWFOMC(f, vocab, 0), BigRational(0));
  EXPECT_EQ(CellAlgorithmWFOMC(form, 1, nullptr), BigRational(2));
}

TEST(LiftedWfomcTest, NegativeWeightsRoundTrip) {
  // Negative weights flow through the lifted path (needed by the MLN
  // reduction); verify against grounding.
  logic::Vocabulary vocab;
  vocab.AddRelation("A", 1, BigRational(1), BigRational(-1));
  vocab.AddRelation("S", 2, BigRational(2), BigRational(1));
  logic::Formula f =
      logic::ParseStrict("forall x (A(x) | exists y S(x,y))", vocab);
  for (std::uint64_t n = 1; n <= 3; ++n) {
    EXPECT_EQ(LiftedWFOMC(f, vocab, n),
              grounding::GroundedWFOMC(f, vocab, n))
        << n;
  }
}

TEST(LiftedWfomcTest, UnsatisfiableSentence) {
  logic::Vocabulary vocab;
  logic::Formula f =
      logic::Parse("(forall x U(x)) & (exists x !U(x))", &vocab);
  EXPECT_EQ(LiftedFOMC(f, vocab, 4), BigInt(0));
}

TEST(LiftedWfomcTest, PolynomialScalingSmokeTest) {
  // The data-complexity claim: n = 40 must be effortless for a fixed FO²
  // sentence (the grounded engine would need 2^1600 worlds).
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("forall x exists y R(x,y)", &vocab);
  BigInt count = LiftedFOMC(f, vocab, 40);
  BigInt expected =
      BigInt::Pow(BigInt::Pow(BigInt(2), 40) - BigInt(1), 40);
  EXPECT_EQ(count, expected);
}

TEST(LiftedProbabilityTest, MatchesGroundedProbability) {
  logic::Vocabulary vocab;
  vocab.AddRelation("S", 2, BigRational(1), BigRational(1));
  logic::Formula f = logic::ParseStrict("forall x exists y S(x,y)", vocab);
  for (std::uint64_t n = 1; n <= 3; ++n) {
    EXPECT_EQ(LiftedProbability(f, vocab, n),
              grounding::GroundedProbability(f, vocab, n))
        << n;
  }
}

TEST(LiftedProbabilityTest, ZeroOneLawDirections) {
  // µ_n(∀x∃y S(x,y)) = (1 - 2^{-n})^n -> 1 (Fagin; the paper's intro
  // misstates this limit as 0 — see EXPERIMENTS.md), while the dual
  // µ_n(∃x∀y S(x,y)) -> 0. Under p = 1/2 the two are exact complements
  // (negate S).
  logic::Vocabulary vocab;
  vocab.AddRelation("S", 2);
  logic::Formula ae = logic::ParseStrict("forall x exists y S(x,y)", vocab);
  logic::Formula ea = logic::ParseStrict("exists x forall y S(x,y)", vocab);
  for (std::uint64_t n = 1; n <= 6; ++n) {
    BigRational mu_ae = LiftedProbability(ae, vocab, n);
    BigRational mu_ea = LiftedProbability(ea, vocab, n);
    EXPECT_EQ(mu_ae + mu_ea, BigRational(1)) << n;
  }
  EXPECT_GT(LiftedProbability(ae, vocab, 8), BigRational::Fraction(9, 10));
  EXPECT_LT(LiftedProbability(ea, vocab, 8), BigRational::Fraction(1, 10));
}

TEST(CellStatsTest, Reported) {
  logic::Vocabulary vocab;
  logic::Formula f = logic::Parse("forall x exists y R(x,y)", &vocab);
  CellStats stats;
  LiftedWFOMC(f, vocab, 5, &stats);
  EXPECT_GT(stats.cells, 0u);
  EXPECT_GT(stats.valid_cells, 0u);
  EXPECT_GT(stats.composition_terms, 0u);
}

}  // namespace
}  // namespace swfomc::fo2
