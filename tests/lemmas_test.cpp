// Tests for the paper's three WFOMC-preserving rewritings (Lemmas 3.3-3.5).
// Each lemma's guarantee is WFOMC equality over an extended vocabulary for
// every domain size; we verify it exactly against the grounded engine.

#include <gtest/gtest.h>

#include "grounding/grounded_wfomc.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/transform.h"
#include "transforms/equality_removal.h"
#include "transforms/negation_removal.h"
#include "transforms/skolemization.h"

namespace swfomc::transforms {
namespace {

using numeric::BigRational;

void ExpectWfomcPreserved(const char* text, logic::Vocabulary vocabulary,
                          std::uint64_t max_n,
                          const RewriteResult& rewritten) {
  logic::Formula original = logic::ParseStrict(text, vocabulary);
  for (std::uint64_t n = 1; n <= max_n; ++n) {
    BigRational before = grounding::GroundedWFOMC(original, vocabulary, n);
    BigRational after =
        grounding::GroundedWFOMC(rewritten.sentence, rewritten.vocabulary, n);
    EXPECT_EQ(before, after) << text << " at n=" << n;
  }
}

logic::Vocabulary WeightedVocab() {
  logic::Vocabulary vocab;
  vocab.AddRelation("R", 2, BigRational(2), BigRational(1));
  vocab.AddRelation("U", 1, BigRational::Fraction(1, 2), BigRational(3));
  vocab.AddRelation("V", 1, BigRational(1), BigRational(1));
  return vocab;
}

TEST(SkolemizationTest, RemovesAllExistentials) {
  logic::Vocabulary vocab = WeightedVocab();
  logic::Formula f = logic::ParseStrict("forall x exists y R(x,y)", vocab);
  RewriteResult result = Skolemize(f, vocab);
  EXPECT_FALSE(logic::ContainsExistentialInNNFSense(result.sentence));
  // The gadget adds a replacement predicate Z with weights (1, 1) and a
  // cancellation predicate Sk with weights (1, -1).
  ASSERT_EQ(result.vocabulary.size(), vocab.size() + 2);
  logic::RelationId z = vocab.size();
  EXPECT_EQ(result.vocabulary.positive_weight(z), BigRational(1));
  EXPECT_EQ(result.vocabulary.negative_weight(z), BigRational(1));
  logic::RelationId sk = vocab.size() + 1;
  EXPECT_EQ(result.vocabulary.positive_weight(sk), BigRational(1));
  EXPECT_EQ(result.vocabulary.negative_weight(sk), BigRational(-1));
}

TEST(SkolemizationTest, PreservesWfomcForallExists) {
  logic::Vocabulary vocab = WeightedVocab();
  logic::Formula f = logic::ParseStrict("forall x exists y R(x,y)", vocab);
  ExpectWfomcPreserved("forall x exists y R(x,y)", vocab, 3,
                       Skolemize(f, vocab));
}

TEST(SkolemizationTest, PreservesWfomcPureExistential) {
  logic::Vocabulary vocab = WeightedVocab();
  logic::Formula f = logic::ParseStrict("exists y U(y)", vocab);
  ExpectWfomcPreserved("exists y U(y)", vocab, 4, Skolemize(f, vocab));
}

TEST(SkolemizationTest, PreservesWfomcNestedAlternation) {
  logic::Vocabulary vocab = WeightedVocab();
  const char* text = "exists x forall y (R(x,y) | U(y))";
  logic::Formula f = logic::ParseStrict(text, vocab);
  ExpectWfomcPreserved(text, vocab, 3, Skolemize(f, vocab));
}

TEST(SkolemizationTest, PreservesWfomcExistsUnderDisjunction) {
  logic::Vocabulary vocab = WeightedVocab();
  const char* text = "forall x (U(x) | exists y (R(x,y) & V(y)))";
  logic::Formula f = logic::ParseStrict(text, vocab);
  ExpectWfomcPreserved(text, vocab, 3, Skolemize(f, vocab));
}

TEST(SkolemizationTest, PreservesWfomcNegatedUniversal) {
  // NNF turns !(forall) into an existential; Skolemization must handle it.
  logic::Vocabulary vocab = WeightedVocab();
  const char* text = "!(forall x U(x)) & forall x V(x)";
  logic::Formula f = logic::ParseStrict(text, vocab);
  ExpectWfomcPreserved(text, vocab, 3, Skolemize(f, vocab));
}

TEST(SkolemizationTest, DoesNotPreserveUnweightedCount) {
  // Section 3.1: if FOMC were preserved, satisfiability of arbitrary FO
  // would reduce to the decidable ∀* fragment. Sanity-check the asymmetry.
  logic::Vocabulary vocab;
  vocab.AddRelation("R", 2);
  logic::Formula f = logic::ParseStrict("forall x exists y R(x,y)", vocab);
  RewriteResult result = Skolemize(f, vocab);
  logic::Vocabulary unweighted = result.vocabulary;
  for (logic::RelationId id = 0; id < unweighted.size(); ++id) {
    unweighted.SetWeights(id, 1, 1);
  }
  // (2^2-1)^2 = 9 models originally; the Skolemized sentence with flat
  // weights counts something else.
  EXPECT_NE(grounding::GroundedWFOMC(result.sentence, unweighted, 2),
            BigRational(9));
}

TEST(NegationRemovalTest, ProducesPositiveSentence) {
  logic::Vocabulary vocab = WeightedVocab();
  const char* text = "forall x forall y (R(x,y) | !U(x) | !V(y))";
  logic::Formula f = logic::ParseStrict(text, vocab);
  RewriteResult result = RemoveNegations(f, vocab);
  // No negation nodes anywhere.
  std::function<bool(const logic::Formula&)> positive =
      [&](const logic::Formula& g) {
        if (g->kind() == logic::FormulaKind::kNot) return false;
        for (const logic::Formula& child : g->children()) {
          if (!positive(child)) return false;
        }
        return true;
      };
  EXPECT_TRUE(positive(result.sentence))
      << logic::ToString(result.sentence, result.vocabulary);
}

TEST(NegationRemovalTest, PreservesWfomcSingleNegation) {
  logic::Vocabulary vocab = WeightedVocab();
  const char* text = "forall x (U(x) | !V(x))";
  logic::Formula f = logic::ParseStrict(text, vocab);
  ExpectWfomcPreserved(text, vocab, 4, RemoveNegations(f, vocab));
}

TEST(NegationRemovalTest, PreservesWfomcMultipleNegations) {
  logic::Vocabulary vocab = WeightedVocab();
  const char* text = "forall x forall y (!R(x,y) | !U(x) | V(y))";
  logic::Formula f = logic::ParseStrict(text, vocab);
  ExpectWfomcPreserved(text, vocab, 3, RemoveNegations(f, vocab));
}

TEST(NegationRemovalTest, PreservesWfomcNegatedEquality) {
  logic::Vocabulary vocab = WeightedVocab();
  const char* text = "forall x forall y (R(x,y) | x = y)";
  logic::Formula f = logic::ParseStrict(text, vocab);
  // NNF of the matrix has no negation, but dualized: check a variant with
  // explicit disequality.
  const char* text2 = "forall x forall y (R(x,y) | !(x = y))";
  logic::Formula f2 = logic::ParseStrict(text2, vocab);
  ExpectWfomcPreserved(text, vocab, 3, RemoveNegations(f, vocab));
  ExpectWfomcPreserved(text2, vocab, 3, RemoveNegations(f2, vocab));
}

TEST(NegationRemovalTest, RejectsNonUniversalInput) {
  logic::Vocabulary vocab = WeightedVocab();
  logic::Formula f = logic::ParseStrict("exists x U(x)", vocab);
  EXPECT_THROW(RemoveNegations(f, vocab), std::invalid_argument);
}

TEST(NegationRemovalTest, ComposesWithSkolemization) {
  // The Corollary 3.2 pipeline: Skolemize, then remove negations; WFOMC
  // must survive both steps.
  logic::Vocabulary vocab = WeightedVocab();
  const char* text = "forall x exists y (R(x,y) & !U(y))";
  logic::Formula f = logic::ParseStrict(text, vocab);
  RewriteResult skolemized = Skolemize(f, vocab);
  RewriteResult positive =
      RemoveNegations(skolemized.sentence, skolemized.vocabulary);
  logic::Formula original = logic::ParseStrict(text, vocab);
  for (std::uint64_t n = 1; n <= 2; ++n) {
    EXPECT_EQ(grounding::GroundedWFOMC(original, vocab, n),
              grounding::GroundedWFOMC(positive.sentence,
                                       positive.vocabulary, n))
        << n;
  }
}

TEST(EqualityRemovalTest, StructuralRewrite) {
  logic::Vocabulary vocab = WeightedVocab();
  const char* text = "forall x forall y (R(x,y) | x = y)";
  logic::Formula f = logic::ParseStrict(text, vocab);
  EqualityRemovalResult result = RemoveEquality(f, vocab);
  EXPECT_TRUE(logic::IsEqualityFree(result.sentence));
  EXPECT_EQ(result.vocabulary.arity(result.equality_relation), 2u);
}

TEST(EqualityRemovalTest, RecoversWfomcViaInterpolation) {
  logic::Vocabulary vocab = WeightedVocab();
  const char* cases[] = {
      "forall x forall y (R(x,y) | x = y)",
      "forall x exists y (R(x,y) & x != y)",
      "exists x exists y (x != y & U(x) & U(y))",
  };
  for (const char* text : cases) {
    logic::Formula f = logic::ParseStrict(text, vocab);
    for (std::uint64_t n = 1; n <= 2; ++n) {
      BigRational direct = grounding::GroundedWFOMC(f, vocab, n);
      BigRational recovered = WFOMCViaEqualityRemoval(
          f, vocab, n,
          [](const logic::Formula& sentence,
             const logic::Vocabulary& vocabulary, std::uint64_t domain) {
            return grounding::GroundedWFOMC(sentence, vocabulary, domain);
          });
      EXPECT_EQ(direct, recovered) << text << " n=" << n;
    }
  }
}

TEST(EqualityRemovalTest, EqualityFreeSentencePassesThrough) {
  logic::Vocabulary vocab = WeightedVocab();
  const char* text = "forall x U(x)";
  logic::Formula f = logic::ParseStrict(text, vocab);
  BigRational direct = grounding::GroundedWFOMC(f, vocab, 2);
  BigRational recovered = WFOMCViaEqualityRemoval(
      f, vocab, 2,
      [](const logic::Formula& sentence, const logic::Vocabulary& vocabulary,
         std::uint64_t domain) {
        return grounding::GroundedWFOMC(sentence, vocabulary, domain);
      });
  EXPECT_EQ(direct, recovered);
}

TEST(EqualityRemovalTest, OverflowingDegreeThrowsBeforeAnyOracleCall) {
  // At n = 2^32 the interpolation degree n^2 passes 2^64 - 1; it must
  // throw up front rather than wrap to 0 and interpolate from one point.
  logic::Vocabulary vocab = WeightedVocab();
  logic::Formula f =
      logic::ParseStrict("forall x forall y (R(x,y) | x = y)", vocab);
  int calls = 0;
  EXPECT_THROW(WFOMCViaEqualityRemoval(
                   f, vocab, std::uint64_t{1} << 32,
                   [&calls](const logic::Formula&, const logic::Vocabulary&,
                            std::uint64_t) {
                     ++calls;
                     return BigRational(1);
                   }),
               std::invalid_argument);
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace swfomc::transforms
