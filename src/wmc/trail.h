#ifndef SWFOMC_WMC_TRAIL_H_
#define SWFOMC_WMC_TRAIL_H_

#include <cstdint>
#include <vector>

#include "prop/compact_cnf.h"

namespace swfomc::wmc {

/// Assignment trail over a CompactCnf, in the style of sharpSAT/Cachet:
/// per-variable truth values, per-clause satisfied/free-literal counters,
/// and a chronological trail of assignments so conditioning is done by
/// counter updates (O(occurrences) per literal) and backtracking by
/// replaying the trail in reverse — no clause vector is ever copied.
///
/// A clause is *satisfied* when some literal in it is assigned true,
/// *active* otherwise; an active clause whose free-literal count drops to
/// one forces its remaining literal (unit propagation), and to zero is a
/// conflict. On conflict the counters are still left consistent with the
/// trail, so UndoTo(mark) always restores the pre-branch state exactly.
class Trail {
 public:
  explicit Trail(const prop::CompactCnf* cnf);

  bool IsAssigned(prop::VarId variable) const {
    return values_[variable] != kUnassigned;
  }
  bool ClauseSatisfied(std::uint32_t clause) const {
    return satisfied_count_[clause] > 0;
  }
  /// Unassigned literals of an active clause (meaningless once satisfied).
  std::uint32_t FreeLiteralCount(std::uint32_t clause) const {
    return free_count_[clause];
  }

  /// Current trail height; pass back to UndoTo to unwind a branch.
  std::size_t Mark() const { return trail_.size(); }
  /// Literals assigned true, in assignment order (decisions followed by
  /// their implications).
  const std::vector<prop::Lit>& assignments() const { return trail_; }

  /// Assigns `decision` true and runs unit propagation to fixpoint.
  /// Implied literals are appended to the trail after the decision and
  /// counted into `*propagations`. Returns false on conflict (the trail
  /// then still holds every assignment made — call UndoTo to unwind).
  bool AssignAndPropagate(prop::Lit decision, std::uint64_t* propagations);

  /// Seeds propagation from clauses that are unit in the formula itself
  /// (used once at the root; decisions handle everything afterwards).
  /// Returns false on conflict. An empty clause is one, reported before
  /// anything is assigned or counted into `*propagations`.
  bool PropagateExistingUnits(std::uint64_t* propagations);

  /// Unassigns every trail literal above `mark`, restoring all counters.
  void UndoTo(std::size_t mark);

 private:
  static constexpr std::int8_t kUnassigned = -1;

  // Assigns one literal, updating every counter it touches (even past a
  // conflict, to keep UndoTo exact). Forced literals are pushed onto
  // queue_. Returns false iff some clause lost its last free literal.
  bool AssignOne(prop::Lit lit);
  bool DrainQueue(std::uint64_t* propagations);

  const prop::CompactCnf* cnf_;
  std::vector<std::int8_t> values_;
  std::vector<prop::Lit> trail_;
  std::vector<std::uint32_t> satisfied_count_;
  std::vector<std::uint32_t> free_count_;
  std::vector<prop::Lit> queue_;
  std::size_t queue_head_ = 0;
};

}  // namespace swfomc::wmc

#endif  // SWFOMC_WMC_TRAIL_H_
