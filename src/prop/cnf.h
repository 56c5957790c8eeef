#ifndef SWFOMC_PROP_CNF_H_
#define SWFOMC_PROP_CNF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "prop/prop_formula.h"

namespace swfomc::prop {

/// A literal, encoded as lit = 2·variable + (positive ? 1 : 0): it fits a
/// machine word, negation is one XOR, literals index occurrence lists
/// directly, and literals sort by variable, the negative one first.
using Lit = std::uint32_t;

constexpr Lit MakeLit(VarId variable, bool positive) {
  return (variable << 1) | static_cast<Lit>(positive ? 1 : 0);
}
constexpr VarId LitVariable(Lit lit) { return lit >> 1; }
constexpr bool LitPositive(Lit lit) { return (lit & 1u) != 0; }
constexpr Lit NegateLit(Lit lit) { return lit ^ 1u; }

/// A clause: a disjunction of literals.
using Clause = std::vector<Lit>;

/// A CNF formula over variables [0, variable_count).
struct CnfFormula {
  std::uint32_t variable_count = 0;
  std::vector<Clause> clauses;

  /// True iff the assignment satisfies every clause.
  bool IsSatisfiedBy(const std::vector<bool>& assignment) const;
};

/// Sorts literals within each clause, drops duplicate literals, drops
/// tautological clauses (containing v and !v), and deduplicates clauses.
void NormalizeCnf(CnfFormula* cnf);

}  // namespace swfomc::prop

#endif  // SWFOMC_PROP_CNF_H_
