#include "logic/transform.h"

#include <gtest/gtest.h>

#include "logic/evaluate.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/structure.h"

namespace swfomc::logic {
namespace {

// Semantic equivalence check: two formulas agree on every structure of
// domain sizes 1..3 (over the same vocabulary, few enough tuples).
void ExpectEquivalent(const Formula& a, const Formula& b,
                      const Vocabulary& vocab, std::uint64_t max_n = 3) {
  for (std::uint64_t n = 1; n <= max_n; ++n) {
    Structure structure(vocab, n);
    if (structure.TupleCount() > 16) break;
    std::uint64_t limit = 1ULL << structure.TupleCount();
    for (std::uint64_t mask = 0; mask < limit; ++mask) {
      structure.AssignFromMask(mask);
      EXPECT_EQ(Evaluate(structure, a), Evaluate(structure, b))
          << "n=" << n << " mask=" << mask << "\n a=" << ToString(a, vocab)
          << "\n b=" << ToString(b, vocab);
    }
  }
}

TEST(SubstituteTest, ReplacesFreeOccurrences) {
  Vocabulary vocab;
  Formula f = Parse("R(x,y)", &vocab);
  Formula g = SubstituteConstant(f, "x", 2);
  EXPECT_EQ(ToString(g, vocab), "R(2,y)");
}

TEST(SubstituteTest, RespectsBinding) {
  Vocabulary vocab;
  Formula f = Parse("R(x) & forall x S(x)", &vocab);
  Formula g = SubstituteConstant(f, "x", 1);
  EXPECT_EQ(ToString(g, vocab), "R(1) & forall x. S(x)");
}

TEST(SubstituteTest, CaptureAvoidance) {
  Vocabulary vocab;
  // Substituting y := x into exists x R(x,y) must rename the binder.
  Formula f = Parse("exists x R(x,y)", &vocab);
  Formula g = Substitute(f, {{"y", Term::Var("x")}});
  // The bound variable must no longer be "x".
  EXPECT_EQ(g->kind(), FormulaKind::kExists);
  EXPECT_NE(g->variable(), "x");
  std::set<std::string> free = FreeVariables(g);
  EXPECT_EQ(free, (std::set<std::string>{"x"}));
}

TEST(NNFTest, PushesNegationThroughConnectives) {
  Vocabulary vocab;
  Formula f = Parse("!(A & (B | !C))", &vocab);
  Formula nnf = ToNNF(f);
  EXPECT_EQ(ToString(nnf, vocab), "!A | !B & C");
  ExpectEquivalent(f, nnf, vocab);
}

TEST(NNFTest, DualizesQuantifiers) {
  Vocabulary vocab;
  Formula f = Parse("!(forall x exists y R(x,y))", &vocab);
  Formula nnf = ToNNF(f);
  EXPECT_EQ(ToString(nnf, vocab), "exists x. forall y. !R(x,y)");
  ExpectEquivalent(f, nnf, vocab, 2);
}

TEST(NNFTest, ImplicationAndIffInsideQuantifier) {
  Vocabulary vocab;
  Formula f = Parse("forall x (U(x) => exists y R(x,y))", &vocab);
  Formula nnf = ToNNF(f);
  ExpectEquivalent(f, nnf, vocab, 2);
  Formula g = Parse("!(forall x (U(x) <=> V(x)))", &vocab);
  ExpectEquivalent(g, ToNNF(g), vocab);
}

TEST(NNFTest, Idempotent) {
  Vocabulary vocab;
  Formula f = Parse("!(A => (B <=> !C))", &vocab);
  Formula once = ToNNF(f);
  Formula twice = ToNNF(once);
  EXPECT_TRUE(StructurallyEqual(once, twice));
}

TEST(RenameApartTest, DistinctBoundNames) {
  Vocabulary vocab;
  Formula f = Parse("(forall x R(x)) & (forall x S(x)) & exists x T(x)",
                    &vocab);
  std::size_t counter = 0;
  Formula g = RenameApart(f, &counter);
  // Three binders -> three distinct fresh names.
  EXPECT_EQ(counter, 3u);
  ExpectEquivalent(f, g, vocab);
}

TEST(PrenexTest, PullsQuantifiersOutOfConjunction) {
  Vocabulary vocab;
  Formula f = Parse("(forall x R(x)) & (exists y S(y))", &vocab);
  std::size_t counter = 0;
  PrenexForm prenex = ToPrenex(f, &counter);
  EXPECT_EQ(prenex.prefix.size(), 2u);
  EXPECT_FALSE(ContainsQuantifier(prenex.matrix));
  ExpectEquivalent(f, FromPrenex(prenex), vocab);
}

TEST(PrenexTest, DisjunctionOfUniversals) {
  Vocabulary vocab;
  // ∀xφ ∨ ∀yψ ≡ ∀x∀y(φ ∨ ψ) — the classic identity; verify semantically.
  Formula f = Parse("(forall x R(x)) | (forall x S(x))", &vocab);
  std::size_t counter = 0;
  PrenexForm prenex = ToPrenex(f, &counter);
  EXPECT_EQ(prenex.prefix.size(), 2u);
  EXPECT_TRUE(prenex.prefix[0].is_forall);
  EXPECT_TRUE(prenex.prefix[1].is_forall);
  ExpectEquivalent(f, FromPrenex(prenex), vocab);
}

TEST(PrenexTest, NegatedQuantifierDualizes) {
  Vocabulary vocab;
  Formula f = Parse("!(exists x (R(x) & forall y S(y)))", &vocab);
  std::size_t counter = 0;
  PrenexForm prenex = ToPrenex(f, &counter);
  ASSERT_EQ(prenex.prefix.size(), 2u);
  EXPECT_TRUE(prenex.prefix[0].is_forall);   // from !exists
  EXPECT_FALSE(prenex.prefix[1].is_forall);  // from !forall
  ExpectEquivalent(f, FromPrenex(prenex), vocab);
}

TEST(PrenexTest, MixedNestingSemanticsPreserved) {
  Vocabulary vocab;
  const char* cases[] = {
      "forall x (R(x) | exists y S(y))",
      "(exists x R(x)) => (exists y S(y))",
      "forall x exists y (R(x) & S(y)) | T(0)",
  };
  for (const char* text : cases) {
    Formula f = Parse(text, &vocab);
    std::size_t counter = 0;
    ExpectEquivalent(f, FromPrenex(ToPrenex(f, &counter)), vocab, 2);
  }
}

TEST(ContainsQuantifierTest, Basics) {
  Vocabulary vocab;
  EXPECT_TRUE(ContainsQuantifier(Parse("forall x R(x)", &vocab)));
  EXPECT_FALSE(ContainsQuantifier(Parse("R(0) & S(1)", &vocab)));
}

TEST(ContainsExistentialTest, NNFSense) {
  Vocabulary vocab;
  EXPECT_TRUE(
      ContainsExistentialInNNFSense(Parse("exists x R(x)", &vocab)));
  EXPECT_FALSE(
      ContainsExistentialInNNFSense(Parse("forall x R(x)", &vocab)));
  // A negated universal is an existential in disguise.
  EXPECT_TRUE(
      ContainsExistentialInNNFSense(Parse("!(forall x R(x))", &vocab)));
  EXPECT_FALSE(
      ContainsExistentialInNNFSense(Parse("!(exists x R(x))", &vocab)));
}

TEST(RenameFreeVariableTest, OnlyFreeOccurrences) {
  Vocabulary vocab;
  Formula f = Parse("R(x) & exists x S(x)", &vocab);
  Formula g = RenameFreeVariable(f, "x", "z");
  EXPECT_EQ(ToString(g, vocab), "R(z) & exists x. S(x)");
}

}  // namespace
}  // namespace swfomc::logic
