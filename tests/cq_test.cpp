// Conjunctive queries, hypergraph acyclicity (Figure 1 taxonomy), and the
// Theorem 3.6 γ-acyclic evaluator (validated against grounding).

#include "cq/gamma_evaluator.h"

#include <gtest/gtest.h>

#include "cq/acyclicity.h"
#include "cq/hypergraph.h"
#include "grounding/grounded_wfomc.h"
#include "logic/parser.h"

namespace swfomc::cq {
namespace {

using numeric::BigInt;
using numeric::BigRational;

ConjunctiveQuery Q(const std::string& text) {
  return ConjunctiveQuery::FromString(text);
}

TEST(ConjunctiveQueryTest, ParseAndRender) {
  ConjunctiveQuery query = Q("R(x,y), S(y,z), T(z)");
  EXPECT_EQ(query.atoms().size(), 3u);
  EXPECT_EQ(query.ToString(), "R(x,y), S(y,z), T(z)");
  EXPECT_EQ(query.Variables(), (std::vector<std::string>{"x", "y", "z"}));
}

TEST(ConjunctiveQueryTest, SelfJoinRejected) {
  ConjunctiveQuery query;
  query.AddAtom("R", {"x", "y"});
  EXPECT_THROW(query.AddAtom("R", {"y", "z"}), std::invalid_argument);
  EXPECT_THROW(Q("R(x), R(y)"), std::invalid_argument);
}

TEST(ConjunctiveQueryTest, DefaultProbabilityIsHalf) {
  ConjunctiveQuery query = Q("R(x)");
  EXPECT_EQ(query.probability("R"), BigRational::Fraction(1, 2));
  query.SetProbability("R", BigRational::Fraction(1, 3));
  EXPECT_EQ(query.probability("R"), BigRational::Fraction(1, 3));
}

TEST(ConjunctiveQueryTest, ToSentenceEncodesWeights) {
  ConjunctiveQuery query = Q("R(x,y), T(y)");
  query.SetProbability("R", BigRational::Fraction(1, 4));
  auto [sentence, vocab] = query.ToSentence();
  EXPECT_TRUE(logic::IsSentence(sentence));
  logic::RelationId r = vocab.Require("R");
  EXPECT_EQ(vocab.positive_weight(r), BigRational::Fraction(1, 4));
  EXPECT_EQ(vocab.negative_weight(r), BigRational::Fraction(3, 4));
}

// --- Figure 1 taxonomy -------------------------------------------------

TEST(AcyclicityTest, ChainIsGammaAcyclic) {
  EXPECT_TRUE(IsGammaAcyclic(BuildHypergraph(Q("R(x,y), S(y,z)"))));
  EXPECT_TRUE(
      IsGammaAcyclic(BuildHypergraph(Q("R1(x0,x1), R2(x1,x2), R3(x2,x3)"))));
}

TEST(AcyclicityTest, PaperCGammaQueryIsGammaCyclicButJtdbStyle) {
  // cγ = R(x,z), S(x,y,z), T(y,z): the paper notes it is γ-CYCLIC (cycle
  // R x S y T z R) yet still PTIME via the separator variable z.
  Hypergraph g = BuildHypergraph(Q("R(x,z), S(x,y,z), T(y,z)"));
  EXPECT_FALSE(IsGammaAcyclic(g));
  EXPECT_TRUE(IsAlphaAcyclic(g));
  // No weak β-cycle: z is everywhere, so any candidate x_i fails the
  // "in no other edge" condition... the cycle R x S y T z R uses z in all
  // three edges, which violates weak-β-cycle distinctness.
  EXPECT_TRUE(IsBetaAcyclic(g));
}

TEST(AcyclicityTest, TypedCyclesHaveWeakBetaCycles) {
  // C_3 = R1(x1,x2), R2(x2,x3), R3(x3,x1).
  Hypergraph c3 = BuildHypergraph(Q("R1(x1,x2), R2(x2,x3), R3(x3,x1)"));
  EXPECT_FALSE(IsGammaAcyclic(c3));
  EXPECT_FALSE(IsBetaAcyclic(c3));
  auto cycle = FindWeakBetaCycle(c3);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->edges.size(), 3u);

  Hypergraph c4 =
      BuildHypergraph(Q("R1(x1,x2), R2(x2,x3), R3(x3,x4), R4(x4,x1)"));
  EXPECT_FALSE(IsBetaAcyclic(c4));
  EXPECT_EQ(FindWeakBetaCycle(c4)->edges.size(), 4u);
}

TEST(AcyclicityTest, CjtdbIsAlphaAcyclic) {
  // cjtdb = R(x,y,z,u), S(x,y), T(x,z), V(x,u) — PTIME per the paper, not
  // jtdb; in our taxonomy it is α-acyclic but not γ-acyclic.
  Hypergraph g =
      BuildHypergraph(Q("R(x,y,z,u), S(x,y), T(x,z), V(x,u)"));
  EXPECT_TRUE(IsAlphaAcyclic(g));
  EXPECT_FALSE(IsGammaAcyclic(g));
  EXPECT_TRUE(IsBetaAcyclic(g));
}

TEST(AcyclicityTest, StarQueryGammaAcyclic) {
  EXPECT_TRUE(IsGammaAcyclic(BuildHypergraph(Q("R(x,y), S(x,z), T(x,u)"))));
}

TEST(AcyclicityTest, TriangleWithCoveringEdgeIsAlphaOnly) {
  // Adding an atom containing all variables makes any query α-acyclic
  // (the Section 3.2 argument for why α-acyclic queries are as hard as
  // all CQs).
  Hypergraph g = BuildHypergraph(
      Q("A(x,y,z), R1(x,y), R2(y,z), R3(z,x)"));
  EXPECT_TRUE(IsAlphaAcyclic(g));
  EXPECT_FALSE(IsGammaAcyclic(g));
  EXPECT_FALSE(IsBetaAcyclic(g));  // the triangle survives as a weak cycle
}

TEST(AcyclicityTest, ClassifyMatchesTaxonomy) {
  EXPECT_EQ(Classify(BuildHypergraph(Q("R(x,y), S(y,z)"))),
            AcyclicityClass::kGammaAcyclic);
  EXPECT_EQ(Classify(BuildHypergraph(Q("R(x,z), S(x,y,z), T(y,z)"))),
            AcyclicityClass::kBetaAcyclic);
  EXPECT_EQ(Classify(BuildHypergraph(Q("R1(x1,x2), R2(x2,x3), R3(x3,x1)"))),
            AcyclicityClass::kCyclic);
}

// --- Theorem 3.6 evaluator ---------------------------------------------

void ExpectMatchesGrounded(const ConjunctiveQuery& query, std::uint64_t max_n) {
  auto [sentence, vocab] = query.ToSentence();
  for (std::uint64_t n = 1; n <= max_n; ++n) {
    BigRational lifted = GammaAcyclicProbability(query, n);
    BigRational grounded = grounding::GroundedProbability(sentence, vocab, n);
    EXPECT_EQ(lifted, grounded) << query.ToString() << " n=" << n;
  }
}

TEST(GammaEvaluatorTest, SingleUnaryAtom) {
  // Pr(∃x R(x)) = 1 - (1-p)^n.
  ConjunctiveQuery query = Q("R(x)");
  query.SetProbability("R", BigRational::Fraction(1, 3));
  for (std::uint64_t n = 1; n <= 6; ++n) {
    BigRational expected =
        BigRational(1) - BigRational::Pow(BigRational::Fraction(2, 3),
                                          static_cast<std::int64_t>(n));
    EXPECT_EQ(GammaAcyclicProbability(query, n), expected) << n;
  }
}

TEST(GammaEvaluatorTest, SingleBinaryAtom) {
  // Pr(∃x∃y R(x,y)) = 1 - (1-p)^{n²} (x,y edge-equivalent, rule (e)).
  ConjunctiveQuery query = Q("R(x,y)");
  query.SetProbability("R", BigRational::Fraction(1, 2));
  for (std::uint64_t n = 1; n <= 4; ++n) {
    BigRational expected =
        BigRational(1) - BigRational::Pow(BigRational::Fraction(1, 2),
                                          static_cast<std::int64_t>(n * n));
    EXPECT_EQ(GammaAcyclicProbability(query, n), expected) << n;
  }
}

TEST(GammaEvaluatorTest, TwoAtomChainMatchesGrounded) {
  ConjunctiveQuery query = Q("R(x,y), T(y)");
  query.SetProbability("R", BigRational::Fraction(1, 2));
  query.SetProbability("T", BigRational::Fraction(1, 3));
  ExpectMatchesGrounded(query, 2);
}

TEST(GammaEvaluatorTest, Example310ChainMatchesGrounded) {
  // The paper's Example 3.10 linear chain with m = 2.
  ConjunctiveQuery query = Q("R1(x0,x1), R2(x1,x2)");
  query.SetProbability("R1", BigRational::Fraction(1, 2));
  query.SetProbability("R2", BigRational::Fraction(2, 3));
  ExpectMatchesGrounded(query, 2);
}

TEST(GammaEvaluatorTest, StarQueryMatchesGrounded) {
  ConjunctiveQuery query = Q("R(x,y), S(x)");
  query.SetProbability("R", BigRational::Fraction(1, 4));
  query.SetProbability("S", BigRational::Fraction(1, 2));
  ExpectMatchesGrounded(query, 2);
}

TEST(GammaEvaluatorTest, RepeatedVariableAtom) {
  // R(x,x) behaves as a unary relation over the diagonal.
  ConjunctiveQuery query = Q("R(x,x)");
  query.SetProbability("R", BigRational::Fraction(1, 2));
  for (std::uint64_t n = 1; n <= 4; ++n) {
    BigRational expected =
        BigRational(1) - BigRational::Pow(BigRational::Fraction(1, 2),
                                          static_cast<std::int64_t>(n));
    EXPECT_EQ(GammaAcyclicProbability(query, n), expected) << n;
  }
}

TEST(GammaEvaluatorTest, ChainScalesPolynomially) {
  // Example 3.10 with m = 4 at n = 25 — far beyond any grounded engine
  // (|Tup| = 4 * 625), finishing instantly: the PTIME claim in action.
  ConjunctiveQuery query =
      Q("R1(x0,x1), R2(x1,x2), R3(x2,x3), R4(x3,x4)");
  BigRational p = GammaAcyclicProbability(query, 25);
  EXPECT_GT(p, BigRational(0));
  EXPECT_LT(p, BigRational(1));
}

TEST(GammaEvaluatorTest, PerVariableDomains) {
  // The generalized semantics of Theorem 3.6.
  ConjunctiveQuery query = Q("R(x,y)");
  query.SetProbability("R", BigRational::Fraction(1, 2));
  GammaEvaluator evaluator;
  std::map<std::string, BigInt> domains{{"x", BigInt(2)}, {"y", BigInt(3)}};
  // 1 - (1/2)^6.
  EXPECT_EQ(evaluator.Probability(query, domains),
            BigRational::Fraction(63, 64));
}

TEST(GammaEvaluatorTest, EmptyDomainGivesZero) {
  ConjunctiveQuery query = Q("R(x)");
  GammaEvaluator evaluator;
  std::map<std::string, BigInt> domains{{"x", BigInt(0)}};
  EXPECT_EQ(evaluator.Probability(query, domains), BigRational(0));
}

TEST(GammaEvaluatorTest, NonGammaAcyclicThrows) {
  ConjunctiveQuery c3 = Q("R1(x1,x2), R2(x2,x3), R3(x3,x1)");
  EXPECT_THROW(GammaAcyclicProbability(c3, 2), std::invalid_argument);
}

TEST(GammaEvaluatorTest, MemoizationFires) {
  ConjunctiveQuery query = Q("R(x), S(x,y), T(y)");
  GammaEvaluator evaluator;
  evaluator.Probability(query, 6);
  EXPECT_GT(evaluator.stats().memo_entries, 0u);
}

TEST(GammaAcyclicWfomcTest, MatchesGroundedWfomc) {
  ConjunctiveQuery query = Q("R(x,y), T(y)");
  std::map<std::string, std::pair<BigRational, BigRational>> weights{
      {"R", {BigRational(2), BigRational(1)}},
      {"T", {BigRational(1), BigRational(3)}}};
  logic::Vocabulary vocab;
  vocab.AddRelation("R", 2, BigRational(2), BigRational(1));
  vocab.AddRelation("T", 1, BigRational(1), BigRational(3));
  logic::Formula sentence =
      logic::ParseStrict("exists x exists y (R(x,y) & T(y))", vocab);
  for (std::uint64_t n = 1; n <= 2; ++n) {
    EXPECT_EQ(GammaAcyclicWFOMC(query, n, weights),
              grounding::GroundedWFOMC(sentence, vocab, n))
        << n;
  }
}

TEST(GammaAcyclicWfomcTest, RepeatedVariableAtomMatchesGroundedWfomc) {
  // R(x,x) constrains only the diagonal; the n² − n other tuples of R are
  // free and count at w + w̄ each.
  ConjunctiveQuery query = Q("R(x,x), T(x)");
  std::map<std::string, std::pair<BigRational, BigRational>> weights{
      {"R", {BigRational::Fraction(4, 7), BigRational::Fraction(7, 5)}},
      {"T", {BigRational::Fraction(-1, 3), BigRational(2)}}};
  logic::Vocabulary vocab;
  vocab.AddRelation("R", 2, weights["R"].first, weights["R"].second);
  vocab.AddRelation("T", 1, weights["T"].first, weights["T"].second);
  logic::Formula sentence =
      logic::ParseStrict("exists x (R(x,x) & T(x))", vocab);
  for (std::uint64_t n = 0; n <= 3; ++n) {
    EXPECT_EQ(GammaAcyclicWFOMC(query, n, weights),
              grounding::GroundedWFOMC(sentence, vocab, n))
        << n;
  }
}

}  // namespace
}  // namespace swfomc::cq
