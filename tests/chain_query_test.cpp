// Example 3.10: the linear-chain recurrence against the general
// Theorem 3.6 evaluator and typed grounding.

#include "cq/chain_query.h"

#include <gtest/gtest.h>

#include "cq/gamma_evaluator.h"
#include "cq/typed_cycle.h"

namespace swfomc::cq {
namespace {

using numeric::BigInt;
using numeric::BigRational;

TEST(ChainQueryTest, RejectsEmptyChain) {
  EXPECT_THROW(ChainQuery({}), std::invalid_argument);
}

TEST(ChainQueryTest, SingleLinkClosedForm) {
  // Pr(∃x0∃x1 R(x0,x1)) = 1 - (1-p)^(n0*n1).
  ChainQuery chain({BigRational::Fraction(1, 3)});
  for (std::uint64_t n0 = 1; n0 <= 3; ++n0) {
    for (std::uint64_t n1 = 1; n1 <= 3; ++n1) {
      BigRational expected =
          BigRational(1) -
          BigRational::Pow(BigRational::Fraction(2, 3),
                           static_cast<std::int64_t>(n0 * n1));
      EXPECT_EQ(chain.Probability({n0, n1}), expected)
          << n0 << "," << n1;
    }
  }
}

TEST(ChainQueryTest, ZeroDomainMeansNoWitness) {
  ChainQuery chain({BigRational::Fraction(1, 2)});
  EXPECT_EQ(chain.Probability({0, 3}), BigRational(0));
  EXPECT_EQ(chain.Probability({3, 0}), BigRational(0));
}

TEST(ChainQueryTest, WrongDomainCountThrows) {
  ChainQuery chain({BigRational::Fraction(1, 2)});
  EXPECT_THROW(chain.Probability({1, 2, 3}), std::invalid_argument);
}

TEST(ChainQueryTest, MatchesGammaEvaluatorStandardSemantics) {
  ChainQuery chain({BigRational::Fraction(1, 2),
                    BigRational::Fraction(1, 3),
                    BigRational::Fraction(2, 3)});
  ConjunctiveQuery query = chain.ToConjunctiveQuery();
  for (std::uint64_t n = 1; n <= 6; ++n) {
    GammaEvaluator evaluator;
    EXPECT_EQ(chain.Probability(n), evaluator.Probability(query, n)) << n;
  }
}

TEST(ChainQueryTest, MatchesTypedGroundingPerVariableDomains) {
  ChainQuery chain({BigRational::Fraction(1, 2),
                    BigRational::Fraction(1, 4)});
  ConjunctiveQuery query = chain.ToConjunctiveQuery();
  for (std::uint64_t n0 = 1; n0 <= 2; ++n0) {
    for (std::uint64_t n1 = 1; n1 <= 2; ++n1) {
      for (std::uint64_t n2 = 1; n2 <= 2; ++n2) {
        std::map<std::string, std::uint64_t> domains{
            {"x0", n0}, {"x1", n1}, {"x2", n2}};
        EXPECT_EQ(chain.Probability({n0, n1, n2}),
                  TypedGroundedProbability(query, domains))
            << n0 << n1 << n2;
      }
    }
  }
}

TEST(ChainQueryTest, ScalesToLargeDomainsForFixedLength) {
  // The paper: polynomial in n for fixed m. n = 40 on a length-4 chain
  // must be quick and exact.
  ChainQuery chain(std::vector<BigRational>(4, BigRational::Fraction(1, 2)));
  BigRational p = chain.Probability(40);
  EXPECT_GT(p, BigRational::Fraction(99, 100));
  EXPECT_LT(p, BigRational(1));
}

// Probability sweeps: the recurrence must agree with the general
// evaluator across chain lengths and probabilities.
struct ChainCase {
  std::size_t length;
  int numerator;  // probability numerator / 4
  std::uint64_t n;
};

class ChainSweep : public ::testing::TestWithParam<ChainCase> {};

TEST_P(ChainSweep, AgreesWithGammaEvaluator) {
  const ChainCase& c = GetParam();
  ChainQuery chain(std::vector<BigRational>(
      c.length, BigRational::Fraction(c.numerator, 4)));
  ConjunctiveQuery query = chain.ToConjunctiveQuery();
  GammaEvaluator evaluator;
  EXPECT_EQ(chain.Probability(c.n), evaluator.Probability(query, c.n));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChainSweep,
    ::testing::Values(ChainCase{1, 1, 4}, ChainCase{1, 3, 5},
                      ChainCase{2, 1, 4}, ChainCase{2, 2, 6},
                      ChainCase{3, 3, 4}, ChainCase{3, 1, 5},
                      ChainCase{4, 2, 4}, ChainCase{5, 1, 3}));

// Large domains at rational probabilities: the recurrence and the
// weight-space evaluator must agree where the answers have hundreds of
// digits, far past what the grounded oracles can reach.
struct RationalChainCase {
  std::size_t length;
  std::uint64_t n;
};

class RationalChainSweep
    : public ::testing::TestWithParam<RationalChainCase> {};

TEST_P(RationalChainSweep, AgreesWithGammaEvaluator) {
  const RationalChainCase& c = GetParam();
  std::vector<BigRational> probabilities;
  for (std::size_t i = 0; i < c.length; ++i) {
    probabilities.push_back(i % 2 == 0 ? BigRational::Fraction(4, 7)
                                       : BigRational::Fraction(5, 6));
  }
  ChainQuery chain(probabilities);
  ConjunctiveQuery query = chain.ToConjunctiveQuery();
  GammaEvaluator evaluator;
  EXPECT_EQ(chain.Probability(c.n), evaluator.Probability(query, c.n));
}

INSTANTIATE_TEST_SUITE_P(
    LargeDomains, RationalChainSweep,
    ::testing::Values(RationalChainCase{2, 8}, RationalChainCase{2, 12},
                      RationalChainCase{3, 9}, RationalChainCase{3, 11},
                      RationalChainCase{4, 10}, RationalChainCase{4, 12}));

}  // namespace
}  // namespace swfomc::cq
