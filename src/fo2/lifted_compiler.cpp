#include "fo2/lifted_compiler.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fo2/fo2_normal_form.h"
#include "fo2/matrix_eval.h"

namespace swfomc::fo2 {

namespace {

using logic::Formula;
using logic::RelationId;
using nnf::LiftedCircuit;
using numeric::BigRational;
using NodeId = LiftedCircuit::NodeId;

// Hash-consing circuit builder: structurally identical nodes (same kind,
// payload, and child list) are emitted once, so the Shannon branches of a
// sentence with many zero-ary predicates share their common subcircuits
// the way the grounded trace shares cache hits.
class Builder {
 public:
  NodeId Const(const BigRational& value) {
    auto [slot_it, inserted] = constant_slots_.emplace(
        value.ToString(), static_cast<std::uint32_t>(constants_.size()));
    if (inserted) constants_.push_back(value);
    LiftedCircuit::Node node;
    node.kind = LiftedCircuit::Kind::kConst;
    node.index = slot_it->second;
    return Intern(node, {});
  }

  NodeId Weight(std::uint32_t relation, bool positive) {
    const std::size_t key = 2 * std::size_t{relation} + (positive ? 1 : 0);
    if (key >= weight_nodes_.size()) weight_nodes_.resize(key + 1, kNoNode);
    if (weight_nodes_[key] == kNoNode) {
      LiftedCircuit::Node node;
      node.kind = LiftedCircuit::Kind::kWeight;
      node.index = relation;
      node.positive = positive;
      weight_nodes_[key] = Intern(node, {});
    }
    return weight_nodes_[key];
  }

  NodeId And(const std::vector<NodeId>& children) {
    if (children.size() == 1) return children[0];
    LiftedCircuit::Node node;
    node.kind = LiftedCircuit::Kind::kAnd;
    return Intern(node, children);
  }

  NodeId Or(const std::vector<NodeId>& children) {
    if (children.size() == 1) return children[0];
    LiftedCircuit::Node node;
    node.kind = LiftedCircuit::Kind::kOr;
    return Intern(node, children);
  }

  NodeId Count(std::uint32_t cells, const std::vector<NodeId>& children) {
    LiftedCircuit::Node node;
    node.kind = LiftedCircuit::Kind::kCount;
    node.cells = cells;
    return Intern(node, children);
  }

  LiftedCircuit Finish(std::vector<LiftedCircuit::Relation> relations,
                       NodeId root) {
    return LiftedCircuit(std::move(relations), std::move(constants_),
                         std::move(nodes_), std::move(edges_), root);
  }

 private:
  static constexpr NodeId kNoNode = ~NodeId{0};

  // Nodes are keyed by a hash of (kind, payload, children) and compared
  // in place on a hash match.
  NodeId Intern(LiftedCircuit::Node node, std::span<const NodeId> children) {
    std::uint64_t hash = static_cast<std::uint64_t>(node.kind);
    auto mix = [&](std::uint64_t word) {
      hash ^= word + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
    };
    mix(node.index);
    mix(node.positive ? 1 : 0);
    mix(node.cells);
    for (NodeId child : children) mix(child);
    auto [first, last] = cache_.equal_range(hash);
    for (auto it = first; it != last; ++it) {
      const LiftedCircuit::Node& other = nodes_[it->second];
      if (other.kind == node.kind && other.index == node.index &&
          other.positive == node.positive && other.cells == node.cells &&
          std::equal(edges_.begin() + other.children_begin,
                     edges_.begin() + other.children_end, children.begin(),
                     children.end())) {
        return it->second;
      }
    }
    node.children_begin = static_cast<std::uint32_t>(edges_.size());
    edges_.insert(edges_.end(), children.begin(), children.end());
    node.children_end = static_cast<std::uint32_t>(edges_.size());
    const auto id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(node);
    cache_.emplace(hash, id);
    return id;
  }

  std::vector<LiftedCircuit::Node> nodes_;
  std::vector<NodeId> edges_;
  std::vector<BigRational> constants_;
  std::unordered_multimap<std::uint64_t, NodeId> cache_;
  std::vector<NodeId> weight_nodes_;  // by 2 · relation + positive
  std::unordered_map<std::string, std::uint32_t> constant_slots_;
};

// Appendix C's cell decomposition of a zero-ary-free matrix: the 1-type
// and off-diagonal enumeration (both weight-independent boolean checks)
// emits each cell weight u_l as an AND of weight leaves and each pair sum
// r_kl as an OR over the satisfying codes, all under one counting node.
NodeId EmitMatrix(Builder* builder, const Formula& matrix,
                  const logic::Vocabulary& vocabulary,
                  LiftedCompileStats* stats) {
  std::vector<RelationId> unary_relations, binary_relations;
  for (RelationId id = 0; id < vocabulary.size(); ++id) {
    if (vocabulary.arity(id) == 1) unary_relations.push_back(id);
    if (vocabulary.arity(id) == 2) binary_relations.push_back(id);
  }
  std::size_t m = unary_relations.size();
  std::size_t b = binary_relations.size();
  if (m + b > 20) {
    throw std::invalid_argument("CompileLifted: too many predicates");
  }
  MatrixEvaluator evaluator(vocabulary, unary_relations, binary_relations);
  auto weight = [&](RelationId relation, std::uint64_t bit) {
    return builder->Weight(static_cast<std::uint32_t>(relation), bit != 0);
  };

  // Enumerate 1-types, keeping only those whose diagonal satisfies ψ(x,x)
  // — a weight-independent check, so the circuit's cell set is valid for
  // every weight vector.
  std::vector<std::uint32_t> cells;
  std::vector<NodeId> children;  // the counting node's
  std::vector<NodeId> leaves;
  const std::uint32_t total_cells = std::uint32_t{1} << (m + b);
  for (std::uint32_t code = 0; code < total_cells; ++code) {
    leaves.clear();
    for (std::size_t i = 0; i < m; ++i) {
      leaves.push_back(weight(unary_relations[i], (code >> i) & 1));
    }
    for (std::size_t i = 0; i < b; ++i) {
      leaves.push_back(weight(binary_relations[i], (code >> (m + i)) & 1));
    }
    if (evaluator.Eval(matrix, {code, code, 0, /*same_element=*/true})) {
      cells.push_back(code);
      children.push_back(builder->And(leaves));
    }
  }
  if (stats != nullptr) {
    stats->unary_predicates = m;
    stats->binary_predicates = b;
    stats->cells += total_cells;
    stats->valid_cells += cells.size();
  }
  std::size_t num_cells = cells.size();
  if (num_cells == 0) return builder->Const(BigRational(0));

  // Then r_kl for k <= l in row-major upper-triangular order — the layout
  // LiftedCircuit::Evaluate feeds into the composition sum. A code holds
  // R_i(a,b) at bit 2i and R_i(b,a) at bit 2i+1, so ψ(b,a) reads the code
  // with each bit pair swapped.
  constexpr std::uint64_t kEven = 0x5555555555555555ULL;
  std::vector<NodeId> satisfying;
  for (std::size_t k = 0; k < num_cells; ++k) {
    for (std::size_t l = k; l < num_cells; ++l) {
      satisfying.clear();
      for (std::uint64_t code = 0; code < (std::uint64_t{1} << (2 * b));
           ++code) {
        const std::uint64_t swapped =
            ((code & kEven) << 1) | ((code >> 1) & kEven);
        if (!evaluator.Eval(matrix, {cells[k], cells[l], code, false}) ||
            !evaluator.Eval(matrix, {cells[l], cells[k], swapped, false})) {
          continue;
        }
        // The cell enumeration above already emitted every weight leaf,
        // so building the leaves only for satisfying codes leaves the
        // emission order unchanged.
        leaves.clear();
        for (std::size_t i = 0; i < b; ++i) {
          leaves.push_back(weight(binary_relations[i], (code >> (2 * i)) & 1));
          leaves.push_back(
              weight(binary_relations[i], (code >> (2 * i + 1)) & 1));
        }
        satisfying.push_back(builder->And(leaves));
      }
      children.push_back(builder->Or(satisfying));
    }
  }
  return builder->Count(static_cast<std::uint32_t>(num_cells), children);
}

// Shannon expansion over the zero-ary predicates. Unlike the direct
// counter, which skips a branch whose compile-time weight is zero, both
// branches are always emitted: the weights live in the leaves and may be
// anything at evaluation time.
NodeId EmitShannon(Builder* builder, const Formula& matrix,
                   const logic::Vocabulary& vocabulary,
                   const std::vector<RelationId>& zeroary, std::size_t index,
                   LiftedCompileStats* stats) {
  if (index == zeroary.size()) {
    return EmitMatrix(builder, matrix, vocabulary, stats);
  }
  RelationId relation = zeroary[index];
  std::vector<NodeId> branches;
  for (bool value : {true, false}) {
    Formula substituted = SubstituteZeroAry(matrix, relation, value);
    NodeId tail = EmitShannon(builder, substituted, vocabulary, zeroary,
                              index + 1, stats);
    branches.push_back(builder->And(
        {builder->Weight(static_cast<std::uint32_t>(relation), value), tail}));
  }
  return builder->Or(std::move(branches));
}

}  // namespace

bool CanCompileLifted(const logic::Formula& sentence,
                      const logic::Vocabulary& vocabulary) {
  return !LiftedObstacle(sentence, vocabulary).has_value();
}

nnf::LiftedCircuit CompileLifted(const logic::Formula& sentence,
                                 const logic::Vocabulary& vocabulary,
                                 LiftedCompileStats* stats) {
  return CompileLifted(ToUniversalForm(sentence, vocabulary), stats);
}

nnf::LiftedCircuit CompileLifted(const UniversalForm& form,
                                 LiftedCompileStats* stats) {
  std::vector<RelationId> zeroary;
  for (RelationId id = 0; id < form.vocabulary.size(); ++id) {
    if (form.vocabulary.arity(id) == 0) zeroary.push_back(id);
  }
  if (stats != nullptr) stats->zeroary_predicates = zeroary.size();
  Builder builder;
  NodeId root =
      EmitShannon(&builder, form.matrix, form.vocabulary, zeroary, 0, stats);
  std::vector<LiftedCircuit::Relation> relations;
  relations.reserve(form.vocabulary.size());
  for (RelationId id = 0; id < form.vocabulary.size(); ++id) {
    relations.push_back(LiftedCircuit::Relation{
        form.vocabulary.name(id), form.vocabulary.positive_weight(id),
        form.vocabulary.negative_weight(id)});
  }
  return builder.Finish(std::move(relations), root);
}

}  // namespace swfomc::fo2
