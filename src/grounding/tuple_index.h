#ifndef SWFOMC_GROUNDING_TUPLE_INDEX_H_
#define SWFOMC_GROUNDING_TUPLE_INDEX_H_

#include <cstdint>
#include <vector>

#include "logic/vocabulary.h"
#include "prop/prop_formula.h"

namespace swfomc::grounding {

/// Bijection between ground tuples Tup(n) and propositional variable ids.
/// Layout matches logic::Structure, and both size each relation with
/// numeric::TupleCount: relations in vocabulary order, tuples within a
/// relation in mixed-radix order with the first argument most
/// significant. |Tup(n)| = Σ_i n^{arity(R_i)}, at most 2^32 - 1 (the
/// constructor throws std::invalid_argument beyond it).
class TupleIndex {
 public:
  TupleIndex(const logic::Vocabulary& vocabulary, std::uint64_t domain_size);

  std::uint64_t domain_size() const { return domain_size_; }
  const logic::Vocabulary& vocabulary() const { return *vocabulary_; }

  /// Total number of ground tuples.
  std::uint64_t TupleCount() const { return total_; }

  /// Variable id of the ground atom R(args).
  prop::VarId VariableOf(logic::RelationId relation,
                         const std::vector<std::uint64_t>& args) const;

  /// Inverse mapping.
  struct GroundAtom {
    logic::RelationId relation;
    std::vector<std::uint64_t> args;
  };
  GroundAtom AtomOf(prop::VarId variable) const;

 private:
  const logic::Vocabulary* vocabulary_;
  std::uint64_t domain_size_;
  std::vector<std::uint64_t> offsets_;
  std::uint64_t total_ = 0;
};

}  // namespace swfomc::grounding

#endif  // SWFOMC_GROUNDING_TUPLE_INDEX_H_
