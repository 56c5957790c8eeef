#include "logic/transform.h"

#include <functional>

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

TEST(ReplaceNodeTest, ReplacesEveryPointerSharedOccurrence) {
  Vocabulary vocab;
  Formula shared = Parse("exists y R(x,y)", &vocab);
  Formula other = Parse("exists y R(x,y)", &vocab);  // equal, not shared
  Formula u = Parse("U(x)", &vocab);
  Formula f = Forall("x", And({shared, Or(u, shared), Not(other)}));
  Formula z = Atom(vocab.AddRelation("Z", 1), {Term::Var("x")});
  Formula g = ReplaceNode(f, shared, z);
  EXPECT_EQ(ToString(g, vocab),
            "forall x. (Z(x) & (U(x) | Z(x)) & !(exists y. R(x,y)))");
  // The untouched subtrees are shared with the input, not copied.
  const Formula& conjunction = g->child();
  EXPECT_EQ(conjunction->child(1)->child(0), u);
  EXPECT_EQ(conjunction->child(2), f->child()->child(2));
}

TEST(ReplaceNodeTest, AbsentTargetReturnsTheSamePointer) {
  Vocabulary vocab;
  Formula f = Parse("forall x (U(x) => exists y R(x,y))", &vocab);
  Formula absent = Parse("U(x)", &vocab);  // structurally present only
  EXPECT_EQ(ReplaceNode(f, absent, True()), f);
  EXPECT_EQ(ReplaceNode(f, f, absent), absent);
}

TEST(MapChildrenTest, RebuildsEveryConnectiveAndQuantifier) {
  Vocabulary vocab;
  Formula f = Parse(
      "forall x ((U(x) => V(x)) & exists y (U(y) <=> !V(y)) & (U(x) | V(x)))",
      &vocab);
  RelationId w = vocab.AddRelation("W", 1);
  RelationId u = vocab.Require("U");
  // Renames U to W wherever it occurs, through every node kind.
  std::function<Formula(const Formula&)> rename = [&](const Formula& g) {
    if (g->kind() == FormulaKind::kAtom && g->relation() == u) {
      return Atom(w, g->arguments());
    }
    return MapChildren(g, rename);
  };
  Formula g = rename(f);
  EXPECT_EQ(ToString(g, vocab),
            "forall x. ((W(x) => V(x)) & exists y. (W(y) <=> !V(y)) & "
            "(W(x) | V(x)))");
  EXPECT_EQ(g->kind(), FormulaKind::kForall);
  EXPECT_EQ(g->child()->child(0)->kind(), FormulaKind::kImplies);
  EXPECT_EQ(g->child()->child(1)->kind(), FormulaKind::kExists);
  EXPECT_EQ(g->child()->child(1)->child()->kind(), FormulaKind::kIff);
  // An identity map rebuilds nothing.
  Formula same = MapChildren(f, [](const Formula& child) { return child; });
  EXPECT_EQ(same, f);
  // A leaf has no children and comes back as is.
  Formula atom = Parse("U(x)", &vocab);
  EXPECT_EQ(MapChildren(atom, [](const Formula&) { return True(); }), atom);
}

TEST(MapChildrenTest, AndOrNormaliseAsAtConstruction) {
  Vocabulary vocab;
  Formula f = Parse("U(x) & (V(x) | P)", &vocab);
  RelationId p = vocab.Require("P");
  std::function<Formula(const Formula&)> set_p = [&](const Formula& g) {
    if (g->kind() == FormulaKind::kAtom && g->relation() == p) return True();
    return MapChildren(g, set_p);
  };
  // V(x) | true is true, and U(x) & true is U(x).
  EXPECT_EQ(set_p(f), f->child(0));
}

}  // namespace
}  // namespace swfomc::logic
