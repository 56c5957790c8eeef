#include "fo2/lifted_compiler.h"

#include <functional>
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
    std::string text = value.ToString();
    auto [slot_it, inserted] =
        constant_slots_.emplace(text, static_cast<std::uint32_t>(constants_.size()));
    if (inserted) constants_.push_back(value);
    LiftedCircuit::Node node;
    node.kind = LiftedCircuit::Kind::kConst;
    node.index = slot_it->second;
    return Intern(node, {}, "K" + text);
  }

  NodeId Weight(std::uint32_t relation, bool positive) {
    LiftedCircuit::Node node;
    node.kind = LiftedCircuit::Kind::kWeight;
    node.index = relation;
    node.positive = positive;
    return Intern(node, {},
                  (positive ? "W+" : "W-") + std::to_string(relation));
  }

  NodeId And(std::vector<NodeId> children) {
    if (children.size() == 1) return children[0];
    LiftedCircuit::Node node;
    node.kind = LiftedCircuit::Kind::kAnd;
    return Intern(node, std::move(children), "A");
  }

  NodeId Or(std::vector<NodeId> children) {
    if (children.size() == 1) return children[0];
    LiftedCircuit::Node node;
    node.kind = LiftedCircuit::Kind::kOr;
    return Intern(node, std::move(children), "O");
  }

  NodeId Count(std::uint32_t cells, std::vector<NodeId> children) {
    LiftedCircuit::Node node;
    node.kind = LiftedCircuit::Kind::kCount;
    node.cells = cells;
    return Intern(node, std::move(children), "C" + std::to_string(cells));
  }

  LiftedCircuit Finish(std::vector<LiftedCircuit::Relation> relations,
                       NodeId root) {
    return LiftedCircuit(std::move(relations), std::move(constants_),
                         std::move(nodes_), std::move(edges_), root);
  }

 private:
  NodeId Intern(LiftedCircuit::Node node, std::vector<NodeId> children,
                std::string key) {
    for (NodeId child : children) {
      key += ',';
      key += std::to_string(child);
    }
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    node.children_begin = static_cast<std::uint32_t>(edges_.size());
    edges_.insert(edges_.end(), children.begin(), children.end());
    node.children_end = static_cast<std::uint32_t>(edges_.size());
    NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(node);
    cache_.emplace(std::move(key), id);
    return id;
  }

  std::vector<LiftedCircuit::Node> nodes_;
  std::vector<NodeId> edges_;
  std::vector<BigRational> constants_;
  std::unordered_map<std::string, NodeId> cache_;
  std::unordered_map<std::string, std::uint32_t> constant_slots_;
};

// The structural mirror of the cell algorithm's SolveMatrix: the same
// 1-type and off-diagonal enumeration (both weight-independent boolean
// checks), but cell weights become ANDs of weight leaves and the pair
// sums r_kl become ORs over the satisfying codes.
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

  // Enumerate 1-types, keeping only those whose diagonal satisfies ψ(x,x)
  // — a weight-independent check, so the circuit's cell set is valid for
  // every weight vector.
  std::vector<Cell> cells;
  std::vector<NodeId> cell_weights;
  std::size_t total_cells = std::size_t{1} << (m + b);
  for (std::size_t code = 0; code < total_cells; ++code) {
    Cell cell;
    cell.unary.resize(m);
    cell.diagonal.resize(b);
    std::vector<NodeId> leaves;
    leaves.reserve(m + b);
    for (std::size_t i = 0; i < m; ++i) {
      cell.unary[i] = (code >> i) & 1;
      leaves.push_back(builder->Weight(
          static_cast<std::uint32_t>(unary_relations[i]), cell.unary[i]));
    }
    for (std::size_t i = 0; i < b; ++i) {
      cell.diagonal[i] = (code >> (m + i)) & 1;
      leaves.push_back(builder->Weight(
          static_cast<std::uint32_t>(binary_relations[i]), cell.diagonal[i]));
    }
    PairEnv env{&cell, &cell, nullptr, nullptr, /*same_element=*/true};
    if (evaluator.Eval(matrix, env)) {
      cells.push_back(std::move(cell));
      cell_weights.push_back(builder->And(std::move(leaves)));
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

  // Counting-node children: the C cell weights, then r_kl for k <= l in
  // row-major upper-triangular order — the layout LiftedCircuit::Evaluate
  // feeds into the composition sum.
  std::vector<NodeId> children = cell_weights;
  std::vector<bool> xy(b), yx(b);
  for (std::size_t k = 0; k < num_cells; ++k) {
    for (std::size_t l = k; l < num_cells; ++l) {
      std::vector<NodeId> satisfying;
      for (std::size_t code = 0; code < (std::size_t{1} << (2 * b)); ++code) {
        std::vector<NodeId> leaves;
        leaves.reserve(2 * b);
        for (std::size_t i = 0; i < b; ++i) {
          xy[i] = (code >> (2 * i)) & 1;
          yx[i] = (code >> (2 * i + 1)) & 1;
          leaves.push_back(builder->Weight(
              static_cast<std::uint32_t>(binary_relations[i]), xy[i]));
          leaves.push_back(builder->Weight(
              static_cast<std::uint32_t>(binary_relations[i]), yx[i]));
        }
        PairEnv forward{&cells[k], &cells[l], &xy, &yx, false};
        if (!evaluator.Eval(matrix, forward)) continue;
        // ψ(b,a): swap the roles of the two elements.
        PairEnv backward{&cells[l], &cells[k], &yx, &xy, false};
        if (!evaluator.Eval(matrix, backward)) continue;
        satisfying.push_back(builder->And(std::move(leaves)));
      }
      children.push_back(builder->Or(std::move(satisfying)));
    }
  }
  return builder->Count(static_cast<std::uint32_t>(num_cells),
                        std::move(children));
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

std::optional<std::string_view> LiftedObstacle(
    const logic::Formula& sentence, const logic::Vocabulary& vocabulary) {
  if (!logic::IsSentence(sentence)) return "not a sentence (free variables)";
  if (!logic::InFragmentFOk(sentence, 2)) return "uses more than 2 variables";
  if (vocabulary.MaxArity() > 2) {
    return "vocabulary has a relation of arity > 2";
  }
  // The same constant scan ToUniversalForm performs, without building the
  // normal form, so routing stays cheap.
  std::function<bool(const Formula&)> has_constant = [&](const Formula& f) {
    for (const logic::Term& t : f->arguments()) {
      if (t.IsConstant()) return true;
    }
    for (const Formula& child : f->children()) {
      if (has_constant(child)) return true;
    }
    return false;
  };
  if (has_constant(sentence)) return "contains constants";
  return std::nullopt;
}

bool CanCompileLifted(const logic::Formula& sentence,
                      const logic::Vocabulary& vocabulary) {
  return !LiftedObstacle(sentence, vocabulary).has_value();
}

nnf::LiftedCircuit CompileLifted(const logic::Formula& sentence,
                                 const logic::Vocabulary& vocabulary,
                                 LiftedCompileStats* stats) {
  UniversalForm form = ToUniversalForm(sentence, vocabulary);
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
