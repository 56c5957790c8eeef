#include "grounding/tuple_index.h"

#include <cassert>
#include <stdexcept>

#include "numeric/combinatorics.h"

namespace swfomc::grounding {

TupleIndex::TupleIndex(const logic::Vocabulary& vocabulary,
                       std::uint64_t domain_size)
    : vocabulary_(&vocabulary), domain_size_(domain_size) {
  // Variable ids are 32-bit, so the running total is checked before
  // every add and can never wrap.
  constexpr std::uint64_t kMaxTuples = 0xFFFFFFFFull;
  offsets_.reserve(vocabulary.size());
  for (logic::RelationId id = 0; id < vocabulary.size(); ++id) {
    offsets_.push_back(total_);
    std::uint64_t count =
        numeric::TupleCount(domain_size_, vocabulary.arity(id));
    if (count > kMaxTuples - total_) {
      throw std::invalid_argument("TupleIndex: too many ground tuples");
    }
    total_ += count;
  }
}

prop::VarId TupleIndex::VariableOf(
    logic::RelationId relation, const std::vector<std::uint64_t>& args) const {
  assert(args.size() == vocabulary_->arity(relation));
  std::uint64_t index = 0;
  for (std::uint64_t a : args) {
    assert(a < domain_size_);
    index = index * domain_size_ + a;
  }
  return static_cast<prop::VarId>(offsets_[relation] + index);
}

TupleIndex::GroundAtom TupleIndex::AtomOf(prop::VarId variable) const {
  std::uint64_t flat = variable;
  logic::RelationId relation = 0;
  for (logic::RelationId id = vocabulary_->size(); id-- > 0;) {
    if (offsets_[id] <= flat) {
      relation = id;
      break;
    }
  }
  std::uint64_t index = flat - offsets_[relation];
  std::size_t arity = vocabulary_->arity(relation);
  std::vector<std::uint64_t> args(arity, 0);
  for (std::size_t i = arity; i-- > 0;) {
    args[i] = index % domain_size_;
    index /= domain_size_;
  }
  return GroundAtom{relation, std::move(args)};
}

}  // namespace swfomc::grounding
