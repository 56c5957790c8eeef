#include "nnf/lifted_circuit.h"

#include <stdexcept>
#include <string>

namespace swfomc::nnf {

using numeric::BigRational;

namespace {

// Children of a kCount node: the C cell weights u_0..u_{C-1} first, then
// the upper-triangular pair sums r_kl for k <= l, row-major.
std::size_t PairSlot(std::size_t cells, std::size_t k, std::size_t l) {
  return cells + k * cells - k * (k - 1) / 2 + (l - k);
}

std::size_t CountChildren(std::size_t cells) {
  return cells + cells * (cells + 1) / 2;
}

}  // namespace

LiftedCircuit::LiftedCircuit(std::vector<Relation> relations,
                             std::vector<BigRational> constants,
                             std::vector<Node> nodes, std::vector<NodeId> edges,
                             NodeId root)
    : relations_(std::move(relations)),
      constants_(std::move(constants)),
      nodes_(std::move(nodes)),
      edges_(std::move(edges)),
      root_(root) {
  if (nodes_.empty()) {
    throw std::invalid_argument("LiftedCircuit: a circuit needs at least one node");
  }
  if (root_ >= nodes_.size()) {
    throw std::invalid_argument("LiftedCircuit: root out of range");
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.children_begin > node.children_end ||
        node.children_end > edges_.size()) {
      throw std::invalid_argument("LiftedCircuit: children span out of range");
    }
    std::size_t arity = node.children_end - node.children_begin;
    switch (node.kind) {
      case Kind::kConst:
        if (node.index >= constants_.size()) {
          throw std::invalid_argument(
              "LiftedCircuit: constant index out of range");
        }
        if (arity != 0) {
          throw std::invalid_argument("LiftedCircuit: constants are childless");
        }
        break;
      case Kind::kWeight:
        if (node.index >= relations_.size()) {
          throw std::invalid_argument(
              "LiftedCircuit: weight relation out of range");
        }
        if (arity != 0) {
          throw std::invalid_argument("LiftedCircuit: weights are childless");
        }
        break;
      case Kind::kAnd:
      case Kind::kOr:
        break;
      case Kind::kCount:
        if (node.cells == 0) {
          throw std::invalid_argument(
              "LiftedCircuit: counting node needs at least one cell");
        }
        if (arity != CountChildren(node.cells)) {
          throw std::invalid_argument(
              "LiftedCircuit: counting node over C cells needs "
              "C + C(C+1)/2 children");
        }
        break;
    }
    for (NodeId child : Children(id)) {
      if (child >= id) {
        throw std::invalid_argument(
            "LiftedCircuit: child does not precede its parent");
      }
    }
  }
}

LiftedCircuit::Weights LiftedCircuit::DefaultWeights() const {
  Weights weights;
  weights.reserve(relations_.size());
  for (const Relation& relation : relations_) {
    weights.emplace_back(relation.positive_weight, relation.negative_weight);
  }
  return weights;
}

void LiftedCircuit::SetComplement(std::vector<std::size_t> arities) {
  if (arities.size() > relations_.size()) {
    throw std::invalid_argument(
        "LiftedCircuit::SetComplement: " + std::to_string(arities.size()) +
        " arities exceed the circuit's " + std::to_string(relations_.size()) +
        " relations");
  }
  complement_ = std::move(arities);
}

BigRational LiftedCircuit::Evaluate(std::uint64_t domain_size) const {
  return Evaluate(domain_size, DefaultWeights());
}

BigRational LiftedCircuit::Evaluate(
    std::uint64_t domain_size, const Weights& weights,
    numeric::BinomialTable* binomials,
    std::vector<BigRational>* values) const {
  if (domain_size == 0) {
    throw std::invalid_argument(
        "LiftedCircuit::Evaluate: domain size 0 is outside the circuit's "
        "validity range (the Scott/Skolem normal form assumes n >= 1)");
  }
  if (weights.size() < relations_.size()) {
    throw std::invalid_argument(
        "LiftedCircuit::Evaluate: weight vector covers fewer relations "
        "than the circuit names");
  }
  numeric::BinomialTable local_binomials;
  if (binomials == nullptr) binomials = &local_binomials;
  std::vector<BigRational> local_values;
  if (values == nullptr) values = &local_values;
  values->resize(nodes_.size());
  std::vector<BigRational>& value = *values;

  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    switch (node.kind) {
      case Kind::kConst:
        value[id] = constants_[node.index];
        break;
      case Kind::kWeight:
        value[id] = node.positive ? weights[node.index].first
                                  : weights[node.index].second;
        break;
      case Kind::kAnd: {
        BigRational product(1);
        for (NodeId child : Children(id)) product *= value[child];
        value[id] = std::move(product);
        break;
      }
      case Kind::kOr: {
        BigRational sum;
        for (NodeId child : Children(id)) sum += value[child];
        value[id] = std::move(sum);
        break;
      }
      case Kind::kCount: {
        // Appendix C's composition sum, with the cell weights u_l and
        // pair sums r_kl already evaluated in the children. This is the
        // same loop as the direct cell algorithm's SolveMatrix, so the
        // result is bit-identical to a direct count.
        std::span<const NodeId> children = Children(id);
        std::size_t cells = node.cells;
        std::uint64_t n = domain_size;
        BigRational total;
        numeric::ForEachComposition(
            n, cells,
            [&](const std::vector<std::uint64_t>& counts) -> bool {
              BigRational term(binomials->Multinomial(n, counts));
              for (std::size_t l = 0; l < cells && !term.IsZero(); ++l) {
                if (counts[l] == 0) continue;
                term *= BigRational::Pow(
                    value[children[l]], static_cast<std::int64_t>(counts[l]));
                if (counts[l] >= 2) {
                  term *= BigRational::Pow(
                      value[children[PairSlot(cells, l, l)]],
                      static_cast<std::int64_t>(counts[l] * (counts[l] - 1) /
                                                2));
                }
                for (std::size_t k = 0; k < l; ++k) {
                  if (counts[k] == 0) continue;
                  term *= BigRational::Pow(
                      value[children[PairSlot(cells, k, l)]],
                      static_cast<std::int64_t>(counts[k] * counts[l]));
                }
              }
              total += term;
              return true;
            });
        value[id] = std::move(total);
        break;
      }
    }
  }
  if (!complement_.has_value()) return value[root_];
  return numeric::TotalWeight(domain_size, *complement_, weights) -
         value[root_];
}

LiftedCircuit::Stats LiftedCircuit::ComputeStats() const {
  Stats stats;
  stats.nodes = nodes_.size();
  stats.edges = edges_.size();
  std::vector<std::uint64_t> depth(nodes_.size(), 0);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    switch (node.kind) {
      case Kind::kConst: ++stats.constant_nodes; break;
      case Kind::kWeight: ++stats.weight_nodes; break;
      case Kind::kAnd: ++stats.and_nodes; break;
      case Kind::kOr: ++stats.or_nodes; break;
      case Kind::kCount: ++stats.count_nodes; break;
    }
    for (NodeId child : Children(id)) {
      if (depth[child] + 1 > depth[id]) depth[id] = depth[child] + 1;
    }
  }
  stats.depth = depth[root_];
  return stats;
}

std::size_t LiftedCircuit::MemoryBytes() const {
  std::size_t bytes = nodes_.capacity() * sizeof(Node) +
                      edges_.capacity() * sizeof(NodeId) +
                      constants_.capacity() * sizeof(BigRational) +
                      relations_.capacity() * sizeof(Relation);
  if (complement_.has_value()) {
    bytes += complement_->capacity() * sizeof(std::size_t);
  }
  for (const BigRational& constant : constants_) {
    bytes += constant.HeapBytes();
  }
  for (const Relation& relation : relations_) {
    bytes += relation.name.capacity() + relation.positive_weight.HeapBytes() +
             relation.negative_weight.HeapBytes();
  }
  return bytes;
}

}  // namespace swfomc::nnf
