#include "mln/mln.h"

#include <stdexcept>

#include "logic/evaluate.h"
#include "logic/parser.h"
#include "logic/structure.h"
#include "numeric/combinatorics.h"

namespace swfomc::mln {

using numeric::BigRational;

void MarkovLogicNetwork::AddSoft(numeric::BigRational weight,
                                 logic::Formula formula) {
  if (weight.Sign() <= 0) {
    throw std::invalid_argument("MLN: soft weights must be positive");
  }
  constraints_.push_back(Constraint{std::move(weight), std::move(formula)});
}

void MarkovLogicNetwork::AddHard(logic::Formula formula) {
  constraints_.push_back(Constraint{std::nullopt, std::move(formula)});
}

void MarkovLogicNetwork::AddSoft(numeric::BigRational weight,
                                 const std::string& formula_text) {
  AddSoft(std::move(weight), logic::Parse(formula_text, &vocabulary_));
}

void MarkovLogicNetwork::AddHard(const std::string& formula_text) {
  AddHard(logic::Parse(formula_text, &vocabulary_));
}

numeric::BigRational MarkovLogicNetwork::BruteForceWeight(
    const logic::Formula& query, std::uint64_t domain_size) const {
  logic::Structure world(vocabulary_, domain_size);
  if (world.TupleCount() > 24) {
    throw std::invalid_argument("MLN::BruteForceWeight: world too large");
  }
  BigRational total;
  std::uint64_t limit = 1ULL << world.TupleCount();
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    world.AssignFromMask(mask);
    if (!logic::Evaluate(world, query)) continue;
    bool hard_ok = true;
    BigRational weight(1);
    for (const Constraint& constraint : constraints_) {
      if (!constraint.weight.has_value()) {
        // Hard: every grounding must hold, i.e. the universal closure.
        std::uint64_t satisfied =
            logic::CountSatisfiedGroundings(world, constraint.formula);
        if (satisfied !=
            numeric::TupleCount(
                domain_size, logic::FreeVariables(constraint.formula).size())) {
          hard_ok = false;
          break;
        }
      } else {
        std::uint64_t satisfied =
            logic::CountSatisfiedGroundings(world, constraint.formula);
        if (satisfied > 0) {
          weight *= BigRational::Pow(*constraint.weight,
                                     static_cast<std::int64_t>(satisfied));
        }
      }
    }
    if (hard_ok) total += weight;
  }
  return total;
}

numeric::BigRational MarkovLogicNetwork::BruteForceProbability(
    const logic::Formula& query, std::uint64_t domain_size) const {
  BigRational numerator = BruteForceWeight(query, domain_size);
  BigRational normalizer = BruteForceWeight(logic::True(), domain_size);
  if (normalizer.IsZero()) {
    throw std::domain_error("MLN: zero partition function");
  }
  return numerator / normalizer;
}

}  // namespace swfomc::mln
