#include "inputs.h"

#include <stdexcept>

#include "io/json.h"

namespace swbench {

using numeric::BigRational;

const char* const kTriangle =
    "exists x exists y exists z (R(x,y) & R(y,z) & R(z,x))";
const char* const kFourCycle =
    "exists x1 exists x2 exists x3 exists x4 "
    "(R(x1,x2) & R(x2,x3) & R(x3,x4) & R(x4,x1))";
const char* const kTypedTriangle =
    "exists x exists y exists z (R(x,y) & S(y,z) & T(z,x))";

BigRational RandomRationalWeight(Rng* rng) {
  std::int64_t p = 4 + static_cast<std::int64_t>((*rng)() % 4);
  std::int64_t q = 4 + static_cast<std::int64_t>((*rng)() % 4);
  if (p == q) ++q;
  return BigRational::Fraction(p, q);
}

BigRational RandomIntegerWeight(Rng* rng, bool allow_negative) {
  BigRational value(2 + static_cast<std::int64_t>((*rng)() % 2));
  return allow_negative && (*rng)() % 4 == 0 ? -value : value;
}

WeightVector RandomWeights(Rng* rng, const logic::Vocabulary& vocabulary,
                           WeightKind kind) {
  auto draw = [&]() {
    return kind == WeightKind::kRational ? RandomRationalWeight(rng)
                                         : RandomIntegerWeight(rng, false);
  };
  WeightVector weights;
  for (logic::RelationId id = 0; id < vocabulary.size(); ++id) {
    BigRational w = draw();
    BigRational wbar = draw();
    weights.push_back({vocabulary.name(id), std::move(w), std::move(wbar)});
  }
  return weights;
}

logic::Vocabulary Reweighted(logic::Vocabulary vocabulary,
                             const WeightVector& weights) {
  for (const NamedWeights& entry : weights) {
    vocabulary.SetWeights(vocabulary.Require(entry.relation), entry.w,
                          entry.wbar);
  }
  return vocabulary;
}

const NamedWeights& Find(const WeightVector& weights, const std::string& name) {
  for (const NamedWeights& entry : weights) {
    if (entry.relation == name) return entry;
  }
  static const NamedWeights kUnit;
  return kUnit;
}

std::string RandomGammaAcyclicSentence(Rng* rng, int atoms) {
  if (atoms < 1) throw std::invalid_argument("need at least one atom");
  std::vector<std::string> variables = {"v0", "v1"};
  std::string body = "R1(v0,v1)";
  for (int i = 2; i <= atoms; ++i) {
    std::string shared = variables[(*rng)() % variables.size()];
    std::string fresh = "v" + std::to_string(variables.size());
    variables.push_back(fresh);
    std::string name = "R" + std::to_string(i);
    switch ((*rng)() % 4) {
      case 0: body += " & " + name + "(" + fresh + ")"; break;
      case 1:
      case 2: body += " & " + name + "(" + shared + "," + fresh + ")"; break;
      default: body += " & " + name + "(" + fresh + "," + shared + ")"; break;
    }
  }
  std::string sentence;
  for (const std::string& variable : variables) {
    sentence += "exists " + variable + " ";
  }
  return sentence + "(" + body + ")";
}

std::string WeightsJson(const WeightVector& weights) {
  std::string json = "{";
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + io::EscapeJson(weights[i].relation) + "\": [\"" +
            weights[i].w.ToString() + "\", \"" + weights[i].wbar.ToString() +
            "\"]";
  }
  return json + "}";
}

}  // namespace swbench
