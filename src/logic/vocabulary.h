#ifndef SWFOMC_LOGIC_VOCABULARY_H_
#define SWFOMC_LOGIC_VOCABULARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "numeric/combinatorics.h"
#include "numeric/rational.h"

namespace swfomc::logic {

/// Index of a relation symbol within a Vocabulary.
using RelationId = std::size_t;

/// Per-relation weight pairs (w_i, w̄_i), indexed by RelationId.
using WeightPairs = numeric::WeightPairs;

/// A weighted relational vocabulary (σ, w, w̄) in the paper's sense
/// (Section 2): an ordered list of relation symbols R_1..R_m with arities,
/// where every symbol carries a pair of symmetric weights (w_i, w̄_i) — the
/// weight of a ground tuple being present resp. absent. Weights default to
/// (1, 1), which makes WFOMC coincide with unweighted model counting
/// (FOMC). Negative weights are permitted; the paper's Skolemization
/// (Lemma 3.3) and MLN reduction (Example 1.2) depend on them.
class Vocabulary {
 public:
  struct Relation {
    std::string name;
    std::size_t arity = 0;
    numeric::BigRational positive_weight{1};  // w_i
    numeric::BigRational negative_weight{1};  // w̄_i
  };

  Vocabulary() = default;

  /// Adds a relation; throws std::invalid_argument if the name is taken.
  RelationId AddRelation(const std::string& name, std::size_t arity,
                         numeric::BigRational positive_weight = 1,
                         numeric::BigRational negative_weight = 1);

  /// Looks up a relation by name.
  std::optional<RelationId> Find(const std::string& name) const;

  /// Relation id by name; throws std::out_of_range if absent.
  RelationId Require(const std::string& name) const;

  const Relation& relation(RelationId id) const { return relations_.at(id); }
  std::size_t size() const { return relations_.size(); }

  const std::string& name(RelationId id) const { return relation(id).name; }
  std::size_t arity(RelationId id) const { return relation(id).arity; }
  const numeric::BigRational& positive_weight(RelationId id) const {
    return relation(id).positive_weight;
  }
  const numeric::BigRational& negative_weight(RelationId id) const {
    return relation(id).negative_weight;
  }

  /// Replaces the weights of a relation.
  void SetWeights(RelationId id, numeric::BigRational positive_weight,
                  numeric::BigRational negative_weight);

  /// Sets every relation's weights to (1, 1), turning WFOMC into FOMC.
  void SetUnitWeights();

  /// |Tup(n)| = Σ_i n^{arity(R_i)}: the number of ground tuples over a
  /// domain of size n. Throws std::invalid_argument when it passes
  /// 2^64 - 1.
  std::uint64_t GroundTupleCount(std::uint64_t domain_size) const;

  /// The arities and the weight pairs, in id order.
  std::vector<std::size_t> Arities() const;
  WeightPairs Weights() const;

  /// numeric::TotalWeight over every relation of the vocabulary.
  numeric::BigRational TotalWeight(std::uint64_t domain_size) const;

  /// The maximum arity over all relations (0 for an empty vocabulary).
  std::size_t MaxArity() const;

  /// A fresh relation name with the given prefix that does not collide
  /// with any existing relation.
  std::string FreshName(const std::string& prefix) const;

 private:
  std::vector<Relation> relations_;
  std::unordered_map<std::string, RelationId> by_name_;
};

}  // namespace swfomc::logic

#endif  // SWFOMC_LOGIC_VOCABULARY_H_
