// Seeded input generation: sentences, weight vectors and the fixed
// sentence catalogs the workloads draw from. Only the seed decides what
// comes out; nothing here depends on the library's behaviour.
#ifndef SWBENCH_INPUTS_H_
#define SWBENCH_INPUTS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "aliases.h"
#include "logic/vocabulary.h"
#include "numeric/rational.h"

namespace swbench {

using Rng = std::mt19937_64;

/// One relation's weight pair, by name.
struct NamedWeights {
  std::string relation;
  numeric::BigRational w{1};
  numeric::BigRational wbar{1};
};
using WeightVector = std::vector<NamedWeights>;

/// The untyped triangle, untyped 4-cycle and typed triangle queries (FO³
/// and FO⁴ conjunctive queries: always grounded).
extern const char* const kTriangle;
extern const char* const kFourCycle;
extern const char* const kTypedTriangle;

/// A positive rational p/q with p, q in [4, 7] (q = p + 1 when they
/// would be equal). Numerators and denominators of one bit-size keep the
/// cost of exact arithmetic nearly independent of the draw, so runs on
/// different seeds measure the same amount of work.
numeric::BigRational RandomRationalWeight(Rng* rng);
/// 2 or 3, negated with probability 1/4 when `allow_negative` (the
/// paper's weights may be negative). The lifted workloads draw integer
/// weights: the lifted evaluators keep exact rationals through
/// n²-degree powers, so fractional weights turn a lifted query into a
/// big-number benchmark 10-100 times slower than the same query on
/// integers, and make its cost depend more on the weight draw than on
/// the sentence.
numeric::BigRational RandomIntegerWeight(Rng* rng, bool allow_negative);

enum class WeightKind { kRational, kInteger };

/// One weight pair per relation of `vocabulary`, positive weights only.
WeightVector RandomWeights(Rng* rng, const logic::Vocabulary& vocabulary,
                           WeightKind kind);

/// Applies `weights` to a copy of `vocabulary`.
logic::Vocabulary Reweighted(logic::Vocabulary vocabulary,
                             const WeightVector& weights);

/// Weight of relation `name` in `weights` (its (1, 1) default if absent).
const NamedWeights& Find(const WeightVector& weights, const std::string& name);

/// A random γ-acyclic conjunctive query as a sentence: `atoms` atoms
/// R1..Rk, each new atom sharing one variable with an earlier one and
/// introducing a fresh one (binary or unary), existentially closed.
std::string RandomGammaAcyclicSentence(Rng* rng, int atoms);

/// Weight vector as the serve protocol's JSON object text, e.g.
/// {"R": ["2/3", "1"]}.
std::string WeightsJson(const WeightVector& weights);

}  // namespace swbench

#endif  // SWBENCH_INPUTS_H_
