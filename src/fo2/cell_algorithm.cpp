#include "fo2/cell_algorithm.h"

#include "logic/evaluate.h"
#include "logic/structure.h"
#include "nnf/lifted_circuit.h"

namespace swfomc::fo2 {

using numeric::BigRational;

numeric::BigRational CellAlgorithmWFOMC(const UniversalForm& form,
                                        std::uint64_t domain_size,
                                        numeric::BinomialTable* binomials,
                                        CellStats* stats) {
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
  unweighted.SetUnitWeights();
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
