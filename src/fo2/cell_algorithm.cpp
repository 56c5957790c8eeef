#include "fo2/cell_algorithm.h"

#include "logic/evaluate.h"
#include "logic/structure.h"
#include "nnf/lifted_circuit.h"

namespace swfomc::fo2 {

using logic::RelationId;
using numeric::BigRational;

numeric::BigRational CellAlgorithmWFOMC(const UniversalForm& form,
                                        std::uint64_t domain_size,
                                        numeric::BinomialTable* binomials,
                                        CellStats* stats) {
  if (domain_size == 0) {
    // Over the empty domain the lineage of ∀x∀y ψ is `true`, so the count
    // is the sum over the 0-ary predicates' assignments = Π_0-ary (w + w̄).
    // NOTE: this is the WFOMC of the universal form itself; the normal-form
    // construction only preserves the original sentence's WFOMC for n >= 1
    // (quantifier pulling assumes a non-empty domain), which is why
    // LiftedWFOMC routes n = 0 elsewhere.
    BigRational result(1);
    for (RelationId id = 0; id < form.vocabulary.size(); ++id) {
      if (form.vocabulary.arity(id) == 0) {
        result *= form.vocabulary.positive_weight(id) +
                  form.vocabulary.negative_weight(id);
      }
    }
    return result;
  }
  nnf::LiftedCircuit circuit = CompileLifted(form, stats);
  nnf::LiftedCircuit::EvalStats eval;
  BigRational result = circuit.Evaluate(
      domain_size, circuit.DefaultWeights(), binomials, nullptr, &eval);
  if (stats != nullptr) stats->composition_terms += eval.composition_terms;
  return result;
}

numeric::BigRational LiftedWFOMC(const logic::Formula& sentence,
                                 const logic::Vocabulary& vocabulary,
                                 std::uint64_t domain_size,
                                 CellStats* stats) {
  if (domain_size == 0) {
    // The normal form preserves WFOMC only for non-empty domains; n = 0
    // has a single world (assignments to 0-ary predicates only) and is
    // evaluated directly.
    logic::Structure empty(vocabulary, 0);
    BigRational result;
    std::uint64_t zeroary = empty.TupleCount();
    for (std::uint64_t mask = 0; mask < (1ULL << zeroary); ++mask) {
      empty.AssignFromMask(mask);
      if (logic::Evaluate(empty, sentence)) result += empty.Weight();
    }
    return result;
  }
  UniversalForm form = ToUniversalForm(sentence, vocabulary);
  return CellAlgorithmWFOMC(form, domain_size, nullptr, stats);
}

numeric::BigInt LiftedFOMC(const logic::Formula& sentence,
                           const logic::Vocabulary& vocabulary,
                           std::uint64_t domain_size) {
  logic::Vocabulary unweighted = vocabulary;
  for (RelationId id = 0; id < unweighted.size(); ++id) {
    unweighted.SetWeights(id, 1, 1);
  }
  return LiftedWFOMC(sentence, unweighted, domain_size).ToInteger();
}

numeric::BigRational LiftedProbability(const logic::Formula& sentence,
                                       const logic::Vocabulary& vocabulary,
                                       std::uint64_t domain_size) {
  BigRational numerator = LiftedWFOMC(sentence, vocabulary, domain_size);
  BigRational normalizer = vocabulary.TotalWeight(domain_size);
  if (normalizer.IsZero()) {
    throw std::domain_error("LiftedProbability: zero normalizer");
  }
  return numerator / normalizer;
}

}  // namespace swfomc::fo2
