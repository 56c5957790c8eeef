#ifndef SWFOMC_PROP_CNF_H_
#define SWFOMC_PROP_CNF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "prop/prop_formula.h"

namespace swfomc::prop {

/// A literal: positive (variable, true) or negative (variable, false).
struct Literal {
  VarId variable;
  bool positive;

  Literal Negated() const { return Literal{variable, !positive}; }

  friend bool operator==(const Literal& a, const Literal& b) {
    return a.variable == b.variable && a.positive == b.positive;
  }
  friend bool operator<(const Literal& a, const Literal& b) {
    if (a.variable != b.variable) return a.variable < b.variable;
    return a.positive < b.positive;
  }
};

/// A clause: a disjunction of literals.
using Clause = std::vector<Literal>;

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
