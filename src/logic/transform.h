#ifndef SWFOMC_LOGIC_TRANSFORM_H_
#define SWFOMC_LOGIC_TRANSFORM_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "logic/formula.h"

namespace swfomc::logic {

namespace internal {

/// Rebuilds a connective or quantifier of `formula`'s kind (and bound
/// variable) over `children` through the factories, so And/Or normalise
/// as at construction. A leaf has no children and comes back as is.
Formula WithChildren(const Formula& formula, std::vector<Formula> children);

}  // namespace internal

/// Applies `map` to each child of `formula` and rebuilds the same kind
/// over the results: the one structural rewrite step every
/// formula-to-formula transformation recurses through. Returns `formula`
/// itself (the same pointer) when every child maps to itself, so an
/// untouched subtree is shared, not copied; leaves always come back as is.
template <typename Map>
Formula MapChildren(const Formula& formula, Map&& map) {
  const std::vector<Formula>& children = formula->children();
  std::vector<Formula> mapped;  // filled from the first changed child on
  for (std::size_t i = 0; i < children.size(); ++i) {
    Formula child = map(children[i]);
    if (mapped.empty()) {
      if (child.get() == children[i].get()) continue;
      mapped.reserve(children.size());
      mapped.assign(children.begin(), children.begin() + i);
    }
    mapped.push_back(std::move(child));
  }
  if (mapped.empty()) return formula;
  return internal::WithChildren(formula, std::move(mapped));
}

/// Replaces every occurrence of `target`, matched by pointer identity,
/// with `replacement`. Pointer-shared occurrences denote one subformula
/// over the same named variables, so the rewrites that name a
/// subformula by a fresh atom (Skolemization, negation removal, the Scott
/// normal form) replace them all at once. Returns `formula` itself when
/// `target` does not occur.
Formula ReplaceNode(const Formula& formula, const Formula& target,
                    const Formula& replacement);

/// Replaces free occurrences of variables by terms. Substitution is
/// capture-avoiding: bound variables that would capture a substituted term
/// are renamed first.
Formula Substitute(const Formula& formula,
                   const std::map<std::string, Term>& substitution);

/// Replaces the single free variable `variable` by constant `value`.
Formula SubstituteConstant(const Formula& formula, const std::string& variable,
                           std::uint64_t value);

/// Negation normal form: implications eliminated and negations pushed to
/// atoms. Quantifiers and connectives are dualized as needed.
Formula ToNNF(const Formula& formula);

/// Renames every bound variable to a fresh name "v0", "v1", ... so that no
/// two quantifiers bind the same name and no bound name collides with a
/// free variable. `counter` carries freshness across calls.
Formula RenameApart(const Formula& formula, std::size_t* counter);

/// A prenex normal form: a quantifier prefix over a quantifier-free matrix.
struct PrenexForm {
  struct QuantifiedVar {
    bool is_forall;
    std::string variable;
  };
  std::vector<QuantifiedVar> prefix;  // outermost first
  Formula matrix;
};

/// Converts to prenex normal form (after renaming apart). The matrix is in
/// NNF. Note the prefix may use more distinct variables than the input —
/// FO² algorithms must NOT go through this function (they use the Scott
/// normal form in fo2/ instead, which preserves the two-variable property).
PrenexForm ToPrenex(const Formula& formula, std::size_t* counter);

/// Reassembles a PrenexForm into a formula.
Formula FromPrenex(const PrenexForm& prenex);

/// True iff any quantifier occurs.
bool ContainsQuantifier(const Formula& formula);

/// True iff the formula (in any form) contains an existential quantifier
/// under an even number of negations or a universal under an odd number —
/// i.e., whether Skolemization (Lemma 3.3) has work to do. Assumes
/// implications have been eliminated.
bool ContainsExistentialInNNFSense(const Formula& formula);

/// Renames free occurrences of `from` to `to` (a variable renaming, not a
/// general substitution; capture-avoiding).
Formula RenameFreeVariable(const Formula& formula, const std::string& from,
                           const std::string& to);

}  // namespace swfomc::logic

#endif  // SWFOMC_LOGIC_TRANSFORM_H_
