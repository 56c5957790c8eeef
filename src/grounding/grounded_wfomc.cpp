#include "grounding/grounded_wfomc.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "grounding/lineage.h"
#include "logic/evaluate.h"
#include "logic/structure.h"
#include "prop/tseitin.h"

namespace swfomc::grounding {

namespace {

using numeric::BigRational;

}  // namespace

wmc::WeightMap SymmetricGroundWeights(const TupleIndex& index,
                                      std::uint32_t total_vars) {
  wmc::WeightMap weights(total_vars);
  for (prop::VarId v = 0; v < index.TupleCount(); ++v) {
    TupleIndex::GroundAtom atom = index.AtomOf(v);
    weights.Set(v, index.vocabulary().positive_weight(atom.relation),
                index.vocabulary().negative_weight(atom.relation));
  }
  return weights;
}

GroundedInstance GroundInstance(const logic::Formula& sentence,
                                const logic::Vocabulary& vocabulary,
                                std::uint64_t domain_size) {
  TupleIndex index(vocabulary, domain_size);
  prop::PropFormula lineage = GroundLineage(sentence, index);
  prop::TseitinResult tseitin = prop::TseitinTransform(
      lineage, static_cast<std::uint32_t>(index.TupleCount()));
  wmc::WeightMap weights =
      SymmetricGroundWeights(index, tseitin.cnf.variable_count);
  return GroundedInstance{std::move(index), std::move(tseitin.cnf),
                          std::move(weights)};
}

wmc::DpllCounter::CountResult GroundedWFOMCBounded(
    const logic::Formula& sentence, const logic::Vocabulary& vocabulary,
    std::uint64_t domain_size, wmc::DpllCounter::Options options,
    wmc::DpllCounter::Stats* stats) {
  GroundedInstance instance = GroundInstance(sentence, vocabulary, domain_size);
  wmc::DpllCounter counter(std::move(instance.cnf),
                           std::move(instance.weights), options);
  wmc::DpllCounter::CountResult result = counter.CountBounded();
  if (stats != nullptr) *stats = counter.stats();
  return result;
}

numeric::BigRational GroundedWFOMC(const logic::Formula& sentence,
                                   const logic::Vocabulary& vocabulary,
                                   std::uint64_t domain_size,
                                   wmc::DpllCounter::Options options,
                                   wmc::DpllCounter::Stats* stats) {
  wmc::DpllCounter::CountResult result =
      GroundedWFOMCBounded(sentence, vocabulary, domain_size, options, stats);
  if (result.outcome != wmc::DpllCounter::CountOutcome::kExact) {
    throw std::runtime_error(
        std::string("GroundedWFOMC: budget exhausted before an exact count "
                    "(stop reason: ") +
        runtime::ToString(result.stop_reason) +
        "); use GroundedWFOMCBounded() for anytime results");
  }
  return std::move(result.value);
}

numeric::BigInt GroundedFOMC(const logic::Formula& sentence,
                             const logic::Vocabulary& vocabulary,
                             std::uint64_t domain_size) {
  // Force weights (1,1) regardless of what the vocabulary carries.
  logic::Vocabulary unweighted = vocabulary;
  unweighted.SetUnitWeights();
  BigRational count = GroundedWFOMC(sentence, unweighted, domain_size);
  return count.ToInteger();
}

numeric::BigRational GroundedWFOMCAsymmetric(
    const logic::Formula& sentence, const logic::Vocabulary& vocabulary,
    std::uint64_t domain_size,
    const std::function<wmc::VariableWeights(const TupleIndex&, prop::VarId)>&
        tuple_weights) {
  GroundedInstance instance = GroundInstance(sentence, vocabulary, domain_size);
  for (prop::VarId v = 0; v < instance.index.TupleCount(); ++v) {
    wmc::VariableWeights w = tuple_weights(instance.index, v);
    instance.weights.Set(v, std::move(w.positive), std::move(w.negative));
  }
  wmc::DpllCounter counter(std::move(instance.cnf),
                           std::move(instance.weights));
  return counter.Count();
}

numeric::BigRational ExhaustiveWFOMC(const logic::Formula& sentence,
                                     const logic::Vocabulary& vocabulary,
                                     std::uint64_t domain_size) {
  logic::Structure structure(vocabulary, domain_size);
  if (structure.TupleCount() > 26) {
    throw std::invalid_argument(
        "ExhaustiveWFOMC: refusing to enumerate 2^" +
        std::to_string(structure.TupleCount()) + " worlds");
  }
  BigRational total;
  std::uint64_t limit = 1ULL << structure.TupleCount();
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    structure.AssignFromMask(mask);
    if (logic::Evaluate(structure, sentence)) {
      total += structure.Weight();
    }
  }
  return total;
}

numeric::BigInt ExhaustiveFOMC(const logic::Formula& sentence,
                               const logic::Vocabulary& vocabulary,
                               std::uint64_t domain_size) {
  logic::Vocabulary unweighted = vocabulary;
  unweighted.SetUnitWeights();
  return ExhaustiveWFOMC(sentence, unweighted, domain_size).ToInteger();
}

numeric::BigRational GroundedProbability(const logic::Formula& sentence,
                                         const logic::Vocabulary& vocabulary,
                                         std::uint64_t domain_size) {
  BigRational numerator = GroundedWFOMC(sentence, vocabulary, domain_size);
  // WFOMC(true, n, w, w̄) = Π_tuples (w + w̄).
  BigRational normalizer = vocabulary.TotalWeight(domain_size);
  if (normalizer.IsZero()) {
    throw std::domain_error("GroundedProbability: zero normalizer");
  }
  return numerator / normalizer;
}

}  // namespace swfomc::grounding
