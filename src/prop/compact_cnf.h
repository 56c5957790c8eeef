#ifndef SWFOMC_PROP_COMPACT_CNF_H_
#define SWFOMC_PROP_COMPACT_CNF_H_

#include <cstdint>
#include <span>
#include <vector>

#include "prop/cnf.h"

namespace swfomc::prop {

/// Flat (CSR) view of a CNF formula: every clause's literals live in one
/// contiguous array addressed by offsets, plus per-literal occurrence
/// lists (literal -> clauses containing it). Built once per solve; search
/// state (assignments, satisfied/free counters) lives elsewhere, so
/// conditioning never copies or reallocates clauses.
class CompactCnf {
 public:
  CompactCnf() = default;

  /// Flattens `cnf` (ideally normalized first — see NormalizeCnf) into the
  /// compact form. Empty clauses are kept; wmc::Trail reports one as a
  /// conflict at the root.
  static CompactCnf Build(const CnfFormula& cnf);

  std::uint32_t variable_count() const { return variable_count_; }
  std::uint32_t clause_count() const {
    return static_cast<std::uint32_t>(clause_begin_.size() - 1);
  }

  std::span<const Lit> Clause(std::uint32_t clause) const {
    return {literals_.data() + clause_begin_[clause],
            literals_.data() + clause_begin_[clause + 1]};
  }
  std::uint32_t ClauseSize(std::uint32_t clause) const {
    return clause_begin_[clause + 1] - clause_begin_[clause];
  }

  /// Ids of the clauses containing `lit` (that exact polarity).
  std::span<const std::uint32_t> Occurrences(Lit lit) const {
    return {occurrences_.data() + occurrence_begin_[lit],
            occurrences_.data() + occurrence_begin_[lit + 1]};
  }

  /// Ids of the clauses containing the variable in either polarity (the
  /// two per-literal lists are adjacent in the flat array, so this is one
  /// contiguous span — may list a clause twice only if it contained both
  /// polarities, which normalization forbids).
  std::span<const std::uint32_t> VariableOccurrences(VarId variable) const {
    Lit negative = MakeLit(variable, false);
    return {occurrences_.data() + occurrence_begin_[negative],
            occurrences_.data() + occurrence_begin_[negative + 2]};
  }

  /// True iff the variable appears (either polarity) in some clause.
  bool Mentions(VarId variable) const {
    Lit negative = MakeLit(variable, false);
    return occurrence_begin_[negative + 2] != occurrence_begin_[negative];
  }

 private:
  std::uint32_t variable_count_ = 0;
  std::vector<Lit> literals_;
  std::vector<std::uint32_t> clause_begin_{0};
  std::vector<std::uint32_t> occurrences_;
  std::vector<std::uint32_t> occurrence_begin_{0, 0};
};

}  // namespace swfomc::prop

#endif  // SWFOMC_PROP_COMPACT_CNF_H_
