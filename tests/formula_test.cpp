#include "logic/formula.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "logic/printer.h"
#include "logic/vocabulary.h"

namespace swfomc::logic {
namespace {

class FormulaTest : public ::testing::Test {
 protected:
  FormulaTest() {
    r_ = vocab_.AddRelation("R", 2);
    u_ = vocab_.AddRelation("U", 1);
    p_ = vocab_.AddRelation("P", 0);
  }
  Vocabulary vocab_;
  RelationId r_, u_, p_;
};

TEST_F(FormulaTest, VocabularyBasics) {
  EXPECT_EQ(vocab_.size(), 3u);
  EXPECT_EQ(vocab_.arity(r_), 2u);
  EXPECT_EQ(vocab_.name(u_), "U");
  EXPECT_EQ(vocab_.Find("R"), r_);
  EXPECT_EQ(vocab_.Find("Nope"), std::nullopt);
  EXPECT_THROW(vocab_.Require("Nope"), std::out_of_range);
  EXPECT_THROW(vocab_.AddRelation("R", 3), std::invalid_argument);
}

TEST_F(FormulaTest, VocabularyWeights) {
  EXPECT_EQ(vocab_.positive_weight(r_), numeric::BigRational(1));
  vocab_.SetWeights(r_, numeric::BigRational(3),
                    numeric::BigRational::Fraction(-1, 2));
  EXPECT_EQ(vocab_.positive_weight(r_), numeric::BigRational(3));
  EXPECT_EQ(vocab_.negative_weight(r_),
            numeric::BigRational::Fraction(-1, 2));
}

TEST_F(FormulaTest, VocabularyGroundTupleCount) {
  // |Tup(n)| = n^2 + n + 1.
  EXPECT_EQ(vocab_.GroundTupleCount(3), 9u + 3u + 1u);
  EXPECT_EQ(vocab_.GroundTupleCount(1), 3u);
  EXPECT_EQ(vocab_.GroundTupleCount(0), 1u);  // only the 0-ary tuple
  EXPECT_EQ(vocab_.MaxArity(), 2u);
}

TEST(VocabularyTest, GroundTupleCountThrowsOnOverflow) {
  Vocabulary vocab;
  vocab.AddRelation("R", 63);
  EXPECT_EQ(vocab.GroundTupleCount(2), std::uint64_t{1} << 63);
  vocab.AddRelation("S", 63);  // 2^63 + 2^63 = 2^64: one past the range
  EXPECT_THROW(vocab.GroundTupleCount(2), std::invalid_argument);
  EXPECT_EQ(vocab.GroundTupleCount(1), 2u);
  Vocabulary wide;
  wide.AddRelation("W", 64);  // 2^64 itself once wrapped to 0
  EXPECT_THROW(wide.GroundTupleCount(2), std::invalid_argument);
}

TEST_F(FormulaTest, VocabularyFreshName) {
  EXPECT_EQ(vocab_.FreshName("A"), "A");
  EXPECT_EQ(vocab_.FreshName("R"), "R0");
}

TEST_F(FormulaTest, AndSimplification) {
  Formula atom = Atom(u_, {Term::Var("x")});
  EXPECT_EQ(And(atom, True()).get(), atom.get());
  EXPECT_EQ(And(atom, False())->kind(), FormulaKind::kFalse);
  EXPECT_EQ(And(std::vector<Formula>{})->kind(), FormulaKind::kTrue);
  // Nested conjunctions flatten.
  Formula nested = And(And(atom, atom), atom);
  EXPECT_EQ(nested->kind(), FormulaKind::kAnd);
  EXPECT_EQ(nested->children().size(), 3u);
}

TEST_F(FormulaTest, OrSimplification) {
  Formula atom = Atom(u_, {Term::Var("x")});
  EXPECT_EQ(Or(atom, False()).get(), atom.get());
  EXPECT_EQ(Or(atom, True())->kind(), FormulaKind::kTrue);
  EXPECT_EQ(Or(std::vector<Formula>{})->kind(), FormulaKind::kFalse);
}

TEST_F(FormulaTest, NotSimplification) {
  EXPECT_EQ(Not(True())->kind(), FormulaKind::kFalse);
  EXPECT_EQ(Not(False())->kind(), FormulaKind::kTrue);
  Formula atom = Atom(p_, {});
  EXPECT_EQ(Not(atom)->kind(), FormulaKind::kNot);
}

TEST_F(FormulaTest, FreeVariablesOfAtom) {
  Formula f = Atom(r_, {Term::Var("x"), Term::Var("y")});
  EXPECT_EQ(FreeVariables(f), (std::set<std::string>{"x", "y"}));
  EXPECT_EQ(FreeVariables(Atom(r_, {Term::Const(1), Term::Var("y")})),
            (std::set<std::string>{"y"}));
}

TEST_F(FormulaTest, FreeVariablesUnderQuantifier) {
  Formula f = Forall("x", Atom(r_, {Term::Var("x"), Term::Var("y")}));
  EXPECT_EQ(FreeVariables(f), (std::set<std::string>{"y"}));
  EXPECT_FALSE(IsSentence(f));
  EXPECT_TRUE(IsSentence(Forall("y", f)));
}

TEST_F(FormulaTest, FreeVariablesShadowing) {
  // forall x (R(x,y) & exists y R(x,y)): free = {y} (outer occurrence).
  Formula inner = Exists("y", Atom(r_, {Term::Var("x"), Term::Var("y")}));
  Formula f =
      Forall("x", And(Atom(r_, {Term::Var("x"), Term::Var("y")}), inner));
  EXPECT_EQ(FreeVariables(f), (std::set<std::string>{"y"}));
}

TEST_F(FormulaTest, AllVariablesCountsDistinctNames) {
  // FO2 membership per the paper counts distinct names with reuse allowed.
  Formula f = Forall(
      "x", Exists("y",
                  And(Atom(r_, {Term::Var("x"), Term::Var("y")}),
                      Exists("x", Atom(r_, {Term::Var("y"), Term::Var("x")})))));
  EXPECT_TRUE(InFragmentFOk(f, 2));
  EXPECT_FALSE(InFragmentFOk(f, 1));
}

TEST_F(FormulaTest, MultiVariableQuantifierHelpers) {
  Formula f = Forall(std::vector<std::string>{"a", "b"},
                     Atom(r_, {Term::Var("a"), Term::Var("b")}));
  EXPECT_EQ(f->kind(), FormulaKind::kForall);
  EXPECT_EQ(f->variable(), "a");
  EXPECT_EQ(f->child()->variable(), "b");
}

TEST_F(FormulaTest, IsEqualityFree) {
  Formula with_eq = Forall("x", Equals(Term::Var("x"), Term::Var("x")));
  EXPECT_FALSE(IsEqualityFree(with_eq));
  EXPECT_TRUE(IsEqualityFree(Atom(u_, {Term::Var("x")})));
}

TEST_F(FormulaTest, StructurallyEqual) {
  Formula a = Forall("x", Atom(u_, {Term::Var("x")}));
  Formula b = Forall("x", Atom(u_, {Term::Var("x")}));
  Formula c = Forall("y", Atom(u_, {Term::Var("y")}));
  EXPECT_TRUE(StructurallyEqual(a, b));
  EXPECT_FALSE(StructurallyEqual(a, c));  // structural, not alpha-equivalence
}

TEST_F(FormulaTest, PrinterRoundTrippableRendering) {
  Formula f = Forall(
      "x", Exists("y", Or(Not(Atom(r_, {Term::Var("x"), Term::Var("y")})),
                          Atom(u_, {Term::Var("x")}))));
  EXPECT_EQ(ToString(f, vocab_), "forall x. exists y. (!R(x,y) | U(x))");
}

TEST_F(FormulaTest, PrinterZeroAryAtom) {
  EXPECT_EQ(ToString(Atom(p_, {}), vocab_), "P");
  EXPECT_EQ(ToString(And(Atom(p_, {}), Not(Atom(p_, {}))), vocab_),
            "P & !P");
}

TEST_F(FormulaTest, PrinterEqualityAndPrecedence) {
  Formula f =
      Or(And(Atom(p_, {}), Atom(p_, {})), Equals(Term::Var("x"), Term::Var("y")));
  EXPECT_EQ(ToString(f, vocab_), "P & P | x = y");
  Formula g = And(Or(Atom(p_, {}), Atom(p_, {})), Atom(p_, {}));
  EXPECT_EQ(ToString(g, vocab_), "(P | P) & P");
}

TEST(TermTest, Ordering) {
  EXPECT_LT(Term::Var("a"), Term::Var("b"));
  EXPECT_EQ(Term::Const(3), Term::Const(3));
  EXPECT_NE(Term::Const(3), Term::Var("x"));
}

}  // namespace
}  // namespace swfomc::logic
