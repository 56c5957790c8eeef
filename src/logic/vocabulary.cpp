#include "logic/vocabulary.h"

#include <limits>
#include <stdexcept>

namespace swfomc::logic {

RelationId Vocabulary::AddRelation(const std::string& name, std::size_t arity,
                                   numeric::BigRational positive_weight,
                                   numeric::BigRational negative_weight) {
  if (by_name_.contains(name)) {
    throw std::invalid_argument("Vocabulary: duplicate relation " + name);
  }
  RelationId id = relations_.size();
  relations_.push_back(Relation{name, arity, std::move(positive_weight),
                                std::move(negative_weight)});
  by_name_.emplace(name, id);
  return id;
}

std::optional<RelationId> Vocabulary::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

RelationId Vocabulary::Require(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::out_of_range("Vocabulary: unknown relation " + name);
  }
  return it->second;
}

void Vocabulary::SetWeights(RelationId id,
                            numeric::BigRational positive_weight,
                            numeric::BigRational negative_weight) {
  relations_.at(id).positive_weight = std::move(positive_weight);
  relations_.at(id).negative_weight = std::move(negative_weight);
}

void Vocabulary::SetUnitWeights() {
  for (RelationId id = 0; id < size(); ++id) SetWeights(id, 1, 1);
}

std::uint64_t Vocabulary::GroundTupleCount(std::uint64_t domain_size) const {
  std::uint64_t total = 0;
  for (const Relation& r : relations_) {
    std::uint64_t count = numeric::TupleCount(domain_size, r.arity);
    if (count > std::numeric_limits<std::uint64_t>::max() - total) {
      throw std::invalid_argument("GroundTupleCount: too many ground tuples");
    }
    total += count;
  }
  return total;
}

std::vector<std::size_t> Vocabulary::Arities() const {
  std::vector<std::size_t> arities;
  arities.reserve(relations_.size());
  for (const Relation& r : relations_) arities.push_back(r.arity);
  return arities;
}

WeightPairs Vocabulary::Weights() const {
  WeightPairs weights;
  weights.reserve(relations_.size());
  for (const Relation& r : relations_) {
    weights.emplace_back(r.positive_weight, r.negative_weight);
  }
  return weights;
}

numeric::BigRational Vocabulary::TotalWeight(std::uint64_t domain_size) const {
  return numeric::TotalWeight(domain_size, Arities(), Weights());
}

std::size_t Vocabulary::MaxArity() const {
  std::size_t max_arity = 0;
  for (const Relation& r : relations_) {
    max_arity = std::max(max_arity, r.arity);
  }
  return max_arity;
}

std::string Vocabulary::FreshName(const std::string& prefix) const {
  if (!by_name_.contains(prefix)) return prefix;
  for (std::size_t i = 0;; ++i) {
    std::string candidate = prefix + std::to_string(i);
    if (!by_name_.contains(candidate)) return candidate;
  }
}

}  // namespace swfomc::logic
