// Golden-value regression corpus: tests/golden/wfomc_golden.json pins
// exact WFOMC values (paper Table 1/2 family entries, closed forms, and
// exhaustively-verified small instances). Every case is replayed through
// Engine::WFOMC under each method the corpus declares applicable —
// golden values are the cheapest way to catch a regression that breaks all
// engines the same way (which the differential suites, by construction,
// cannot see).
//
// The corpus location is compiled in (SWFOMC_GOLDEN_JSON, set by
// tests/CMakeLists.txt), so the binary runs from any directory. The JSON
// itself is read through io::ParseJson — the library's own reader, once
// a private copy in this file, now shared with the swfomc CLI.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/engine.h"
#include "io/json.h"
#include "numeric/rational.h"

namespace swfomc {
namespace {

using api::Engine;
using api::Method;
using io::JsonValue;
using numeric::BigRational;

// --- Corpus loading ------------------------------------------------------

struct GoldenCase {
  std::string name;
  std::string sentence;
  std::map<std::string, std::pair<BigRational, BigRational>> weights;
  std::uint64_t domain_size = 0;
  BigRational wfomc;
  std::vector<Method> methods;
};

Method MethodFromString(const std::string& text) {
  if (text == "lifted-fo2") return Method::kLiftedFO2;
  if (text == "gamma-acyclic") return Method::kGammaAcyclic;
  if (text == "grounded") return Method::kGrounded;
  throw std::runtime_error("golden json: unknown method '" + text + "'");
}

const std::vector<GoldenCase>& Corpus() {
  static const std::vector<GoldenCase> corpus = [] {
    std::ifstream in(SWFOMC_GOLDEN_JSON);
    if (!in) {
      throw std::runtime_error("golden json: cannot open " +
                               std::string(SWFOMC_GOLDEN_JSON));
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    JsonValue root = io::ParseJson(buffer.str(), SWFOMC_GOLDEN_JSON);
    std::vector<GoldenCase> cases;
    for (const JsonValue& entry : root.At("cases").array) {
      GoldenCase golden;
      golden.name = entry.At("name").string;
      golden.sentence = entry.At("sentence").string;
      golden.domain_size = std::stoull(entry.At("domain_size").string);
      golden.wfomc = BigRational::FromString(entry.At("wfomc").string);
      for (const auto& [relation, pair] : entry.At("weights").object) {
        golden.weights[relation] = {
            BigRational::FromString(pair.array.at(0).string),
            BigRational::FromString(pair.array.at(1).string)};
      }
      for (const JsonValue& method : entry.At("methods").array) {
        golden.methods.push_back(MethodFromString(method.string));
      }
      cases.push_back(std::move(golden));
    }
    return cases;
  }();
  return corpus;
}

class GoldenCorpus : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenCorpus, ReplaysUnderEveryApplicableMethod) {
  const GoldenCase& golden = Corpus()[GetParam()];
  SCOPED_TRACE(golden.name);
  for (Method method : golden.methods) {
    SCOPED_TRACE(api::ToString(method));
    Engine engine((logic::Vocabulary()));
    logic::Formula sentence = engine.Parse(golden.sentence);
    for (const auto& [relation, weights] : golden.weights) {
      engine.mutable_vocabulary()->SetWeights(
          engine.vocabulary().Require(relation), weights.first,
          weights.second);
    }
    Engine::Result result = engine.WFOMC(sentence, golden.domain_size, method);
    EXPECT_EQ(result.value, golden.wfomc);
    EXPECT_EQ(result.method, method);
  }
}

TEST_P(GoldenCorpus, SweepEndpointCoversGoldenPoint) {
  // WFOMCSweep(n_lo = 1, n_hi = golden n) must reproduce the golden value
  // at its endpoint on the first declared method — exercising the batched
  // path against the same pinned numbers.
  const GoldenCase& golden = Corpus()[GetParam()];
  SCOPED_TRACE(golden.name);
  if (golden.domain_size == 0) return;
  Method method = golden.methods.front();
  Engine engine((logic::Vocabulary()));
  logic::Formula sentence = engine.Parse(golden.sentence);
  for (const auto& [relation, weights] : golden.weights) {
    engine.mutable_vocabulary()->SetWeights(
        engine.vocabulary().Require(relation), weights.first, weights.second);
  }
  Engine::SweepResult sweep =
      engine.WFOMCSweep(sentence, 1, golden.domain_size, method);
  ASSERT_EQ(sweep.points.size(), golden.domain_size);
  EXPECT_EQ(sweep.points.back().domain_size, golden.domain_size);
  EXPECT_EQ(sweep.points.back().value, golden.wfomc);
}

std::string CaseName(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string name = Corpus()[info.param].name;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenCorpus,
                         ::testing::Range<std::size_t>(0, Corpus().size()),
                         CaseName);

}  // namespace
}  // namespace swfomc
