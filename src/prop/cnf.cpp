#include "prop/cnf.h"

#include <algorithm>
#include <set>

namespace swfomc::prop {

bool CnfFormula::IsSatisfiedBy(const std::vector<bool>& assignment) const {
  for (const Clause& clause : clauses) {
    bool satisfied = false;
    for (Lit lit : clause) {
      if (assignment.at(LitVariable(lit)) == LitPositive(lit)) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

void NormalizeCnf(CnfFormula* cnf) {
  std::set<Clause> seen;
  std::vector<Clause> result;
  for (Clause& clause : cnf->clauses) {
    std::sort(clause.begin(), clause.end());
    clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
    bool tautology = false;
    for (std::size_t i = 0; i + 1 < clause.size(); ++i) {
      // Sorted, so v's two literals are adjacent: 2v, then 2v + 1.
      if (clause[i + 1] == NegateLit(clause[i])) {
        tautology = true;
        break;
      }
    }
    if (tautology) continue;
    if (seen.insert(clause).second) {
      result.push_back(std::move(clause));
    }
  }
  cnf->clauses = std::move(result);
}

}  // namespace swfomc::prop
