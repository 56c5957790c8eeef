#include "transforms/equality_removal.h"

#include <stdexcept>

#include "logic/transform.h"
#include "numeric/combinatorics.h"
#include "numeric/polynomial.h"

namespace swfomc::transforms {

namespace {

using logic::Formula;
using logic::FormulaKind;

Formula ReplaceEquality(const Formula& formula, logic::RelationId e_id) {
  if (formula->kind() == FormulaKind::kEquality) {
    return logic::Atom(e_id, formula->arguments());
  }
  return logic::MapChildren(formula, [&](const Formula& child) {
    return ReplaceEquality(child, e_id);
  });
}

}  // namespace

EqualityRemovalResult RemoveEquality(const logic::Formula& sentence,
                                     const logic::Vocabulary& vocabulary) {
  EqualityRemovalResult result;
  result.vocabulary = vocabulary;
  std::string name = result.vocabulary.FreshName("Eq");
  // Placeholder weight (1, 1); the recovery procedure re-binds w(E).
  result.equality_relation = result.vocabulary.AddRelation(name, 2);
  Formula rewritten = ReplaceEquality(sentence, result.equality_relation);
  Formula reflexivity = logic::Forall(
      "veq", logic::Atom(result.equality_relation,
                         {logic::Term::Var("veq"), logic::Term::Var("veq")}));
  result.sentence = And(std::move(rewritten), std::move(reflexivity));
  return result;
}

numeric::BigRational WFOMCViaEqualityRemoval(
    const logic::Formula& sentence, const logic::Vocabulary& vocabulary,
    std::uint64_t domain_size, const WfomcOracle& oracle) {
  // Sized before the first oracle call: n^2 past 2^64 - 1 throws here
  // instead of wrapping to a tiny degree.
  std::uint64_t degree = numeric::TupleCount(domain_size, 2);
  EqualityRemovalResult rewrite = RemoveEquality(sentence, vocabulary);
  std::vector<std::pair<numeric::BigRational, numeric::BigRational>> points;
  points.reserve(degree + 1);
  for (std::uint64_t z = 0; z <= degree; ++z) {
    logic::Vocabulary bound = rewrite.vocabulary;
    bound.SetWeights(rewrite.equality_relation,
                     numeric::BigRational(static_cast<std::int64_t>(z)), 1);
    points.emplace_back(
        numeric::BigRational(static_cast<std::int64_t>(z)),
        oracle(rewrite.sentence, bound, domain_size));
  }
  numeric::Polynomial f = numeric::Polynomial::Interpolate(points);
  if (f.Degree() > degree) {
    throw std::logic_error("WFOMCViaEqualityRemoval: degree bound violated");
  }
  // All monomials must have degree >= n; the coefficient of z^n is the
  // answer (worlds where |E| = n, i.e. E is exactly the diagonal).
  for (std::uint64_t k = 0; k < domain_size; ++k) {
    if (!f.Coefficient(k).IsZero()) {
      throw std::logic_error(
          "WFOMCViaEqualityRemoval: low-degree monomial present");
    }
  }
  return f.Coefficient(domain_size);
}

}  // namespace swfomc::transforms
