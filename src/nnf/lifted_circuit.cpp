#include "nnf/lifted_circuit.h"

#include <cstddef>
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

// The value of one counting node at domain size n >= 1: the kCount
// comment in the header, step by step.
class CountingSum {
 public:
  CountingSum(std::size_t cells, const std::vector<BigRational>& value,
              std::span<const LiftedCircuit::NodeId> children)
      : cells_(cells), value_(value), children_(children), u_(cells) {}

  BigRational Evaluate(std::uint64_t n, numeric::BinomialTable* binomials,
                       LiftedCircuit::EvalStats* stats) {
    Merge(stats);
    if (alive_.empty()) return BigRational(0);  // no cell holds an element
    binomials_ = binomials;
    carry_.assign(alive_.size(),
                  std::vector<BigRational>(alive_.size(), BigRational(1)));
    // r_last^{C(j,2)} for j = 0..n, shared by every innermost term.
    const BigRational& r = Pair(alive_.size() - 1, alive_.size() - 1);
    BigRational step(1);
    last_pairs_.assign(n + 1, BigRational(1));
    for (std::uint64_t j = 2; j <= n; ++j) {
      step *= r;
      last_pairs_[j] = last_pairs_[j - 1] * step;
    }
    Visit(0, n, BigRational(1));
    if (stats != nullptr) {
      stats->composition_terms += terms_;
      stats->pruned_subtrees += pruned_;
    }
    return std::move(total_);
  }

 private:
  // r between the k-th and l-th surviving cells.
  const BigRational& Pair(std::size_t k, std::size_t l) const {
    k = alive_[k];
    l = alive_[l];
    if (k > l) std::swap(k, l);
    return value_[children_[PairSlot(cells_, k, l)]];
  }

  // Drops the cells of weight 0, then merges interchangeable cells
  // (r_kk = r_kl = r_ll and r_km = r_lm for every other m) into one cell
  // of weight u_k + u_l. Interchangeability is an equivalence, and a
  // merge leaves the survivor's pair sums as they were, so one pass finds
  // every merge; only a merged weight that cancels to 0 and is dropped
  // can enable more.
  void Merge(LiftedCircuit::EvalStats* stats) {
    for (std::size_t l = 0; l < cells_; ++l) {
      u_[l] = value_[children_[l]];
      alive_.push_back(l);
    }
    auto interchangeable = [&](std::size_t i, std::size_t j) {
      const BigRational& r = Pair(i, j);
      if (Pair(i, i) != r || Pair(j, j) != r) return false;
      for (std::size_t m = 0; m < alive_.size(); ++m) {
        if (m != i && m != j && Pair(i, m) != Pair(j, m)) return false;
      }
      return true;
    };
    for (std::size_t before = 0; before != alive_.size();) {
      before = alive_.size();
      std::erase_if(alive_, [&](std::size_t l) { return u_[l].IsZero(); });
      for (std::size_t i = 0; i < alive_.size(); ++i) {
        for (std::size_t j = i + 1; j < alive_.size();) {
          if (!interchangeable(i, j)) {
            ++j;
            continue;
          }
          u_[alive_[i]] += u_[alive_[j]];
          alive_.erase(alive_.begin() + static_cast<std::ptrdiff_t>(j));
          if (stats != nullptr) ++stats->merged_cells;
        }
      }
    }
  }

  // Sums over the counts of the surviving cells l.. that add up to
  // `remaining`. `prefix` is the enclosing loops' product of binomials
  // and factors, and carry_[l][m] (m >= l) is Π_{k<l} r_km^{n_k}.
  void Visit(std::size_t l, std::uint64_t remaining,
             const BigRational& prefix) {
    const std::size_t last = alive_.size() - 1;
    if (remaining == 0) {  // every later cell is empty
      ++terms_;
      total_ += prefix;
      return;
    }
    BigRational a = u_[alive_[l]] * carry_[l][l];
    if (l == last) {  // the last cell takes the remainder
      ++terms_;
      if (a.IsZero()) {
        ++pruned_;
        return;
      }
      BigRational term =
          BigRational::Pow(a, static_cast<std::int64_t>(remaining));
      term *= last_pairs_[remaining];
      term *= prefix;
      total_ += term;
      return;
    }
    std::vector<BigRational>& next = carry_[l + 1];
    for (std::size_t m = l + 1; m <= last; ++m) next[m] = carry_[l][m];
    Visit(l + 1, remaining, prefix);  // n_l = 0
    BigRational factor(1);            // a^j · r_ll^{C(j,2)}
    BigRational step = std::move(a);  // a · r_ll^j
    for (std::uint64_t j = 1; j <= remaining; ++j) {
      factor *= step;
      if (factor.IsZero()) {  // and so for every larger j
        ++pruned_;
        return;
      }
      step *= Pair(l, l);
      for (std::size_t m = l + 1; m <= last; ++m) next[m] *= Pair(l, m);
      BigRational term(binomials_->Get(remaining, j));
      term *= factor;
      term *= prefix;
      Visit(l + 1, remaining - j, term);
    }
  }

  const std::size_t cells_;
  const std::vector<BigRational>& value_;
  const std::span<const LiftedCircuit::NodeId> children_;
  std::vector<BigRational> u_;       // by original cell, merges summed in
  std::vector<std::size_t> alive_;   // surviving cells, in original order
  numeric::BinomialTable* binomials_ = nullptr;
  std::vector<std::vector<BigRational>> carry_;
  std::vector<BigRational> last_pairs_;
  BigRational total_;
  std::uint64_t terms_ = 0;
  std::uint64_t pruned_ = 0;
};

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
    numeric::BinomialTable* binomials, std::vector<BigRational>* values,
    EvalStats* stats) const {
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
      case Kind::kCount:
        value[id] = CountingSum(node.cells, value, Children(id))
                        .Evaluate(domain_size, binomials, stats);
        break;
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
