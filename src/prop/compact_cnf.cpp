#include "prop/compact_cnf.h"

namespace swfomc::prop {

CompactCnf CompactCnf::Build(const CnfFormula& cnf) {
  CompactCnf compact;
  compact.variable_count_ = cnf.variable_count;

  // Qualified: inside this member scope a bare `Clause` is the accessor.
  std::size_t total_literals = 0;
  for (const prop::Clause& clause : cnf.clauses) {
    total_literals += clause.size();
  }

  compact.literals_.reserve(total_literals);
  compact.clause_begin_.clear();
  compact.clause_begin_.reserve(cnf.clauses.size() + 1);
  compact.clause_begin_.push_back(0);
  for (const prop::Clause& clause : cnf.clauses) {
    compact.literals_.insert(compact.literals_.end(), clause.begin(),
                             clause.end());
    compact.clause_begin_.push_back(
        static_cast<std::uint32_t>(compact.literals_.size()));
  }

  // Counting sort of clause ids into per-literal occurrence lists.
  std::size_t literal_space = 2 * static_cast<std::size_t>(cnf.variable_count);
  std::vector<std::uint32_t> counts(literal_space, 0);
  for (Lit lit : compact.literals_) ++counts[lit];
  compact.occurrence_begin_.assign(literal_space + 1, 0);
  for (std::size_t lit = 0; lit < literal_space; ++lit) {
    compact.occurrence_begin_[lit + 1] =
        compact.occurrence_begin_[lit] + counts[lit];
  }
  compact.occurrences_.resize(total_literals);
  std::vector<std::uint32_t> cursor(compact.occurrence_begin_.begin(),
                                    compact.occurrence_begin_.end() - 1);
  for (std::uint32_t clause = 0; clause < compact.clause_count(); ++clause) {
    for (Lit lit : compact.Clause(clause)) {
      compact.occurrences_[cursor[lit]++] = clause;
    }
  }
  return compact;
}

}  // namespace swfomc::prop
