#include "grounding/tuple_index.h"

#include <cassert>
#include <stdexcept>

namespace swfomc::grounding {

TupleIndex::TupleIndex(const logic::Vocabulary& vocabulary,
                       std::uint64_t domain_size)
    : vocabulary_(&vocabulary), domain_size_(domain_size) {
  offsets_.reserve(vocabulary.size());
  for (logic::RelationId id = 0; id < vocabulary.size(); ++id) {
    offsets_.push_back(total_);
    std::uint64_t count = 1;
    for (std::size_t i = 0; i < vocabulary.arity(id); ++i) {
      count *= domain_size_;
    }
    total_ += count;
  }
  if (total_ > 0xFFFFFFFFull) {
    throw std::invalid_argument("TupleIndex: too many ground tuples");
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
