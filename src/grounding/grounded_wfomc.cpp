#include "grounding/grounded_wfomc.h"

#include <stdexcept>

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

numeric::BigRational GroundedWFOMC(const logic::Formula& sentence,
                                   const logic::Vocabulary& vocabulary,
                                   std::uint64_t domain_size,
                                   wmc::DpllCounter::Options options,
                                   wmc::DpllCounter::Stats* stats) {
  TupleIndex index(vocabulary, domain_size);
  prop::PropFormula lineage = GroundLineage(sentence, index);
  prop::TseitinResult tseitin = prop::TseitinTransform(
      lineage, static_cast<std::uint32_t>(index.TupleCount()));
  wmc::WeightMap weights =
      SymmetricGroundWeights(index, tseitin.cnf.variable_count);
  wmc::DpllCounter counter(std::move(tseitin.cnf), std::move(weights),
                           options);
  BigRational result = counter.Count();
  if (stats != nullptr) *stats = counter.stats();
  return result;
}

wmc::DpllCounter::CountResult GroundedWFOMCBounded(
    const logic::Formula& sentence, const logic::Vocabulary& vocabulary,
    std::uint64_t domain_size, wmc::DpllCounter::Options options,
    wmc::DpllCounter::Stats* stats) {
  TupleIndex index(vocabulary, domain_size);
  prop::PropFormula lineage = GroundLineage(sentence, index);
  prop::TseitinResult tseitin = prop::TseitinTransform(
      lineage, static_cast<std::uint32_t>(index.TupleCount()));
  wmc::WeightMap weights =
      SymmetricGroundWeights(index, tseitin.cnf.variable_count);
  wmc::DpllCounter counter(std::move(tseitin.cnf), std::move(weights),
                           options);
  wmc::DpllCounter::CountResult result = counter.CountBounded();
  if (stats != nullptr) *stats = counter.stats();
  return result;
}

numeric::BigInt GroundedFOMC(const logic::Formula& sentence,
                             const logic::Vocabulary& vocabulary,
                             std::uint64_t domain_size) {
  // Force weights (1,1) regardless of what the vocabulary carries.
  logic::Vocabulary unweighted = vocabulary;
  for (logic::RelationId id = 0; id < unweighted.size(); ++id) {
    unweighted.SetWeights(id, 1, 1);
  }
  BigRational count = GroundedWFOMC(sentence, unweighted, domain_size);
  return count.ToInteger();
}

numeric::BigRational GroundedWFOMCAsymmetric(
    const logic::Formula& sentence, const logic::Vocabulary& vocabulary,
    std::uint64_t domain_size,
    const std::function<wmc::VariableWeights(const TupleIndex&, prop::VarId)>&
        tuple_weights) {
  TupleIndex index(vocabulary, domain_size);
  prop::PropFormula lineage = GroundLineage(sentence, index);
  prop::TseitinResult tseitin = prop::TseitinTransform(
      lineage, static_cast<std::uint32_t>(index.TupleCount()));
  wmc::WeightMap weights(tseitin.cnf.variable_count);
  for (prop::VarId v = 0; v < index.TupleCount(); ++v) {
    wmc::VariableWeights w = tuple_weights(index, v);
    weights.Set(v, std::move(w.positive), std::move(w.negative));
  }
  wmc::DpllCounter counter(std::move(tseitin.cnf), std::move(weights));
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
  for (logic::RelationId id = 0; id < unweighted.size(); ++id) {
    unweighted.SetWeights(id, 1, 1);
  }
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
