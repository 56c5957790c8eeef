#ifndef SWFOMC_LOGIC_STRUCTURE_H_
#define SWFOMC_LOGIC_STRUCTURE_H_

#include <cstdint>
#include <vector>

#include "logic/vocabulary.h"
#include "numeric/rational.h"

namespace swfomc::logic {

/// A finite relational structure (possible world) over domain [n] for a
/// fixed vocabulary. Relations are stored densely: relation R of arity k
/// owns an n^k bit table indexed in mixed radix (first argument most
/// significant). Structures are *labeled*: isomorphic structures are
/// distinct, matching the paper's counting convention.
class Structure {
 public:
  Structure(const Vocabulary& vocabulary, std::uint64_t domain_size);

  std::uint64_t domain_size() const { return domain_size_; }
  const Vocabulary& vocabulary() const { return *vocabulary_; }

  /// Truth value of the ground atom R(args). args.size() must equal the
  /// relation's arity and every value must lie in [n] (checked in debug).
  bool Get(RelationId relation, const std::vector<std::uint64_t>& args) const;
  void Set(RelationId relation, const std::vector<std::uint64_t>& args,
           bool value);

  /// Number of tuples present in a relation.
  std::uint64_t Cardinality(RelationId relation) const;

  /// Total number of ground tuples (|Tup(n)|); also the length of the flat
  /// bit representation below.
  std::uint64_t TupleCount() const { return total_bits_; }

  /// Flat addressing: every ground tuple across all relations has a unique
  /// index in [0, TupleCount()). Layout: relations in vocabulary order,
  /// tuples within a relation in mixed-radix order.
  void SetBit(std::uint64_t flat_index, bool value);
  /// Overwrites all tuple bits from the low bits of `encoded` (for
  /// exhaustive world enumeration; requires TupleCount() <= 64).
  void AssignFromMask(std::uint64_t encoded);

  /// The paper's W(θ) (Eq. 3) with symmetric weights: product over present
  /// tuples of w_R and absent tuples of w̄_R.
  numeric::BigRational Weight() const;

  /// Index arithmetic of the flat layout above. grounding::TupleIndex
  /// keeps its own copy of this layout; structure_test checks this one.
  std::uint64_t FlatIndex(RelationId relation,
                          const std::vector<std::uint64_t>& args) const;
  std::uint64_t RelationOffset(RelationId relation) const {
    return offsets_.at(relation);
  }
  std::uint64_t RelationBitCount(RelationId relation) const;

 private:
  const Vocabulary* vocabulary_;
  std::uint64_t domain_size_;
  std::vector<std::uint64_t> offsets_;  // flat offset of each relation
  std::uint64_t total_bits_ = 0;
  std::vector<bool> bits_;
};

}  // namespace swfomc::logic

#endif  // SWFOMC_LOGIC_STRUCTURE_H_
