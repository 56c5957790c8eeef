#include "logic/structure.h"

#include <cassert>
#include <stdexcept>

#include "numeric/combinatorics.h"

namespace swfomc::logic {

Structure::Structure(const Vocabulary& vocabulary, std::uint64_t domain_size)
    : vocabulary_(&vocabulary),
      domain_size_(domain_size),
      total_bits_(vocabulary.GroundTupleCount(domain_size)) {
  offsets_.reserve(vocabulary.size());
  std::uint64_t offset = 0;
  for (RelationId id = 0; id < vocabulary.size(); ++id) {
    offsets_.push_back(offset);
    offset += RelationBitCount(id);
  }
  bits_.assign(total_bits_, false);
}

std::uint64_t Structure::FlatIndex(
    RelationId relation, const std::vector<std::uint64_t>& args) const {
  assert(args.size() == vocabulary_->arity(relation));
  std::uint64_t index = 0;
  for (std::uint64_t a : args) {
    assert(a < domain_size_);
    index = index * domain_size_ + a;
  }
  return offsets_[relation] + index;
}

std::uint64_t Structure::RelationBitCount(RelationId relation) const {
  return numeric::TupleCount(domain_size_, vocabulary_->arity(relation));
}

bool Structure::Get(RelationId relation,
                    const std::vector<std::uint64_t>& args) const {
  return bits_[FlatIndex(relation, args)];
}

void Structure::Set(RelationId relation,
                    const std::vector<std::uint64_t>& args, bool value) {
  bits_[FlatIndex(relation, args)] = value;
}

std::uint64_t Structure::Cardinality(RelationId relation) const {
  std::uint64_t offset = offsets_[relation];
  std::uint64_t count = RelationBitCount(relation);
  std::uint64_t result = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (bits_[offset + i]) ++result;
  }
  return result;
}

void Structure::SetBit(std::uint64_t flat_index, bool value) {
  bits_.at(flat_index) = value;
}

void Structure::AssignFromMask(std::uint64_t encoded) {
  if (total_bits_ > 64) {
    throw std::invalid_argument(
        "Structure::AssignFromMask: more than 64 ground tuples");
  }
  for (std::uint64_t i = 0; i < total_bits_; ++i) {
    bits_[i] = (encoded >> i) & 1;
  }
}

numeric::BigRational Structure::Weight() const {
  numeric::BigRational weight(1);
  for (RelationId id = 0; id < vocabulary_->size(); ++id) {
    const numeric::BigRational& w = vocabulary_->positive_weight(id);
    const numeric::BigRational& w_bar = vocabulary_->negative_weight(id);
    std::uint64_t present = Cardinality(id);
    std::uint64_t absent = RelationBitCount(id) - present;
    if (present > 0) {
      weight *= numeric::BigRational::Pow(w, static_cast<std::int64_t>(present));
    }
    if (absent > 0) {
      weight *= numeric::BigRational::Pow(w_bar,
                                          static_cast<std::int64_t>(absent));
    }
  }
  return weight;
}

}  // namespace swfomc::logic
