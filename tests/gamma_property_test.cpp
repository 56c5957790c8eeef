// Property sweeps for the Theorem 3.6 evaluator: on random γ-acyclic
// queries with random probabilities and per-variable domain sizes, the
// lifted evaluator must agree with typed grounding (and with the generic
// sentence-grounding path under the standard semantics).

#include <gtest/gtest.h>

#include <random>

#include "cq/acyclicity.h"
#include "cq/gamma_evaluator.h"
#include "cq/hypergraph.h"
#include "cq/typed_cycle.h"
#include "grounding/grounded_wfomc.h"
#include "test_util.h"

namespace swfomc::cq {
namespace {

using numeric::BigInt;
using numeric::BigRational;
using testutil::MakeRandomTreeQuery;

class GammaSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GammaSweep, TreeQueriesAreGammaAcyclic) {
  ConjunctiveQuery query = MakeRandomTreeQuery(GetParam(), 4);
  EXPECT_TRUE(IsGammaAcyclic(BuildHypergraph(query)))
      << query.ToString();
}

TEST_P(GammaSweep, EvaluatorMatchesTypedGroundingUniformDomains) {
  ConjunctiveQuery query = MakeRandomTreeQuery(GetParam(), 4);
  GammaEvaluator evaluator;
  for (std::uint64_t n = 1; n <= 2; ++n) {
    EXPECT_EQ(evaluator.Probability(query, n),
              TypedGroundedProbability(query, n))
        << query.ToString() << " at n=" << n;
  }
}

TEST_P(GammaSweep, EvaluatorMatchesTypedGroundingPerVariableDomains) {
  ConjunctiveQuery query = MakeRandomTreeQuery(GetParam(), 3);
  std::mt19937_64 rng(GetParam() * 977);
  std::map<std::string, std::uint64_t> domains;
  std::map<std::string, BigInt> big_domains;
  for (const std::string& v : query.Variables()) {
    std::uint64_t size = 1 + rng() % 3;
    domains[v] = size;
    big_domains[v] = BigInt(size);
  }
  GammaEvaluator evaluator;
  EXPECT_EQ(evaluator.Probability(query, big_domains),
            TypedGroundedProbability(query, domains))
      << query.ToString();
}

TEST_P(GammaSweep, EvaluatorMatchesSentenceGrounding) {
  ConjunctiveQuery query = MakeRandomTreeQuery(GetParam(), 3);
  auto [sentence, vocab] = query.ToSentence();
  GammaEvaluator evaluator;
  for (std::uint64_t n = 1; n <= 2; ++n) {
    EXPECT_EQ(evaluator.Probability(query, n),
              grounding::GroundedProbability(sentence, vocab, n))
        << query.ToString() << " at n=" << n;
  }
}

TEST_P(GammaSweep, WeightedCountMatchesGroundedWfomc) {
  // Weights need not be probabilities: rational, negative and zero
  // weights and w + w̄ = 0 all count in weight space.
  const std::pair<BigRational, BigRational> kPool[] = {
      {BigRational::Fraction(4, 7), BigRational::Fraction(7, 5)},
      {BigRational::Fraction(-1, 3), BigRational(2)},
      {BigRational(0), BigRational::Fraction(5, 6)},
      {BigRational(3), BigRational(0)},
      {BigRational(1), BigRational(-1)},
      {BigRational(-2), BigRational::Fraction(-5, 4)}};
  ConjunctiveQuery query = MakeRandomTreeQuery(GetParam(), 3);
  auto [sentence, vocab] = query.ToSentence();
  std::mt19937_64 rng(GetParam() * 613);
  std::map<std::string, std::pair<BigRational, BigRational>> weights;
  for (const ConjunctiveQuery::QueryAtom& atom : query.atoms()) {
    const auto& pair = kPool[rng() % std::size(kPool)];
    weights[atom.relation] = pair;
    vocab.SetWeights(vocab.Require(atom.relation), pair.first, pair.second);
  }
  for (std::uint64_t n = 0; n <= 2; ++n) {
    EXPECT_EQ(GammaAcyclicWFOMC(query, n, weights),
              grounding::GroundedWFOMC(sentence, vocab, n))
        << query.ToString() << " at n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GammaSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace swfomc::cq
