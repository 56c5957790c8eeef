#include "logic/parser.h"

#include <gtest/gtest.h>

#include "logic/printer.h"

namespace swfomc::logic {
namespace {

TEST(ParserTest, SimpleAtom) {
  Vocabulary vocab;
  Formula f = Parse("R(x,y)", &vocab);
  EXPECT_EQ(f->kind(), FormulaKind::kAtom);
  EXPECT_EQ(vocab.arity(vocab.Require("R")), 2u);
  EXPECT_EQ(f->arguments()[0], Term::Var("x"));
}

TEST(ParserTest, ZeroAryAtom) {
  Vocabulary vocab;
  Formula f = Parse("P & Q", &vocab);
  EXPECT_EQ(f->kind(), FormulaKind::kAnd);
  EXPECT_EQ(vocab.arity(vocab.Require("P")), 0u);
}

TEST(ParserTest, ConstantsInAtoms) {
  Vocabulary vocab;
  Formula f = Parse("R(0, 2)", &vocab);
  EXPECT_EQ(f->arguments()[0], Term::Const(0));
  EXPECT_EQ(f->arguments()[1], Term::Const(2));
}

TEST(ParserTest, QuantifierSugar) {
  Vocabulary vocab;
  Formula a = Parse("forall x exists y. R(x,y)", &vocab);
  Formula b = Parse("forall x. exists y. R(x,y)", &vocab);
  Formula c = Parse("forall x (exists y (R(x,y)))", &vocab);
  EXPECT_TRUE(StructurallyEqual(a, b));
  EXPECT_TRUE(StructurallyEqual(a, c));
  EXPECT_EQ(a->kind(), FormulaKind::kForall);
  EXPECT_EQ(a->child()->kind(), FormulaKind::kExists);
}

TEST(ParserTest, MultiVariableQuantifier) {
  Vocabulary vocab;
  Formula a = Parse("forall x y. R(x,y)", &vocab);
  Formula b = Parse("forall x forall y. R(x,y)", &vocab);
  EXPECT_TRUE(StructurallyEqual(a, b));
}

TEST(ParserTest, PrecedenceAndBeforeOr) {
  Vocabulary vocab;
  Formula f = Parse("A | B & C", &vocab);
  EXPECT_EQ(f->kind(), FormulaKind::kOr);
  EXPECT_EQ(f->children()[1]->kind(), FormulaKind::kAnd);
}

TEST(ParserTest, ImplicationRightAssociative) {
  Vocabulary vocab;
  Formula f = Parse("A => B => C", &vocab);
  EXPECT_EQ(f->kind(), FormulaKind::kImplies);
  EXPECT_EQ(f->child(1)->kind(), FormulaKind::kImplies);
}

TEST(ParserTest, IffAndArrowSpelling) {
  Vocabulary vocab;
  Formula f = Parse("A <=> B", &vocab);
  EXPECT_EQ(f->kind(), FormulaKind::kIff);
  Formula g = Parse("A -> B", &vocab);
  EXPECT_EQ(g->kind(), FormulaKind::kImplies);
}

TEST(ParserTest, EqualityAndDisequality) {
  Vocabulary vocab;
  Formula f = Parse("x = y", &vocab);
  EXPECT_EQ(f->kind(), FormulaKind::kEquality);
  Formula g = Parse("x != y", &vocab);
  EXPECT_EQ(g->kind(), FormulaKind::kNot);
  EXPECT_EQ(g->child()->kind(), FormulaKind::kEquality);
}

TEST(ParserTest, NegationBindsTighterThanAnd) {
  Vocabulary vocab;
  Formula f = Parse("!A & B", &vocab);
  EXPECT_EQ(f->kind(), FormulaKind::kAnd);
  EXPECT_EQ(f->children()[0]->kind(), FormulaKind::kNot);
}

TEST(ParserTest, TrueFalseKeywords) {
  Vocabulary vocab;
  EXPECT_EQ(Parse("true", &vocab)->kind(), FormulaKind::kTrue);
  EXPECT_EQ(Parse("false", &vocab)->kind(), FormulaKind::kFalse);
}

TEST(ParserTest, PaperExampleSentences) {
  Vocabulary vocab;
  // Table 1 sentence.
  Formula table1 = Parse("forall x forall y (R(x) | S(x,y) | T(y))", &vocab);
  EXPECT_TRUE(IsSentence(table1));
  EXPECT_TRUE(InFragmentFOk(table1, 2));
  // QS4 (Theorem 3.7).
  Vocabulary qs4_vocab;
  Formula qs4 = Parse(
      "forall x1 forall x2 forall y1 forall y2 "
      "(S(x1,y1) | !S(x2,y1) | S(x2,y2) | !S(x1,y2))",
      &qs4_vocab);
  EXPECT_TRUE(IsSentence(qs4));
  EXPECT_TRUE(InFragmentFOk(qs4, 4));
  // MLN constraint of Example 1.1.
  Vocabulary mln_vocab;
  Formula mln = Parse("Spouse(x,y) & Female(x) => Male(y)", &mln_vocab);
  EXPECT_EQ(FreeVariables(mln), (std::set<std::string>{"x", "y"}));
}

TEST(ParserTest, ArityConflictRejected) {
  Vocabulary vocab;
  Parse("R(x,y)", &vocab);
  EXPECT_THROW(Parse("R(x)", &vocab), std::invalid_argument);
}

TEST(ParserTest, StrictModeRejectsUnknownRelations) {
  Vocabulary vocab;
  vocab.AddRelation("R", 1);
  EXPECT_NO_THROW(ParseStrict("forall x R(x)", vocab));
  EXPECT_THROW(ParseStrict("forall x S(x)", vocab), std::invalid_argument);
  EXPECT_EQ(vocab.size(), 1u);  // strict mode never mutates
}

TEST(ParserTest, SyntaxErrors) {
  Vocabulary vocab;
  EXPECT_THROW(Parse("", &vocab), std::invalid_argument);
  EXPECT_THROW(Parse("R(x", &vocab), std::invalid_argument);
  EXPECT_THROW(Parse("forall. R(x)", &vocab), std::invalid_argument);
  EXPECT_THROW(Parse("R(x,y) R(x,y)", &vocab), std::invalid_argument);
  EXPECT_THROW(Parse("x &", &vocab), std::invalid_argument);
  EXPECT_THROW(Parse("(R(x)", &vocab), std::invalid_argument);
  EXPECT_THROW(Parse("R(x,)", &vocab), std::invalid_argument);
}

TEST(ParserTest, BareTermRequiresComparison) {
  Vocabulary vocab;
  EXPECT_THROW(Parse("x", &vocab), std::invalid_argument);
  EXPECT_NO_THROW(Parse("x = x", &vocab));
}

TEST(ParserTest, PrintParseRoundTrip) {
  const char* sentences[] = {
      "forall x. exists y. R(x,y)",
      "forall x forall y (R(x) | S(x,y) | T(y))",
      "exists x (U(x) & !V(x))",
      "forall x (x = x | P)",
      "forall x forall y (E(x,y) => E(y,x))",
  };
  for (const char* text : sentences) {
    // Fresh vocabulary per sentence: the samples reuse relation names at
    // different arities.
    Vocabulary vocab;
    Formula original = Parse(text, &vocab);
    Formula reparsed = Parse(ToString(original, vocab), &vocab);
    EXPECT_TRUE(StructurallyEqual(original, reparsed)) << text;
  }
}

TEST(ParserTest, UnderscoreAndPrimedVariables) {
  Vocabulary vocab;
  Formula f = Parse("R(x_1, y')", &vocab);
  EXPECT_EQ(f->arguments()[0], Term::Var("x_1"));
  EXPECT_EQ(f->arguments()[1], Term::Var("y'"));
}

TEST(ParserTest, ConstantPast64BitsIsAPositionedError) {
  Vocabulary vocab;
  // 2^64 - 1 is the largest constant.
  Formula max = Parse("R(18446744073709551615)", &vocab);
  EXPECT_EQ(max->arguments()[0], Term::Const(UINT64_MAX));
  // 2^64 + 1 once wrapped to R(1); it now fails at its first digit.
  try {
    Parse("R(x) | R(18446744073709551617)", &vocab);
    FAIL() << "2^64 + 1 parsed";
  } catch (const SyntaxError& error) {
    EXPECT_EQ(error.offset(), 9u);
    EXPECT_NE(std::string(error.what()).find("number too large"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace swfomc::logic
