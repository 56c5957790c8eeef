#include "nnf/circuit.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace swfomc::nnf {

namespace {

using numeric::BigRational;
using prop::LitPositive;
using prop::LitVariable;
using prop::VarId;

std::string NodeName(Circuit::NodeId id) {
  return "node " + std::to_string(id);
}

}  // namespace

Circuit::Circuit(std::uint32_t variable_count, std::vector<Node> nodes,
                 std::vector<NodeId> edges, NodeId root)
    : variable_count_(variable_count),
      nodes_(std::move(nodes)),
      edges_(std::move(edges)),
      root_(root) {
  if (nodes_.empty()) {
    throw std::invalid_argument("Circuit: no nodes");
  }
  if (root_ >= nodes_.size()) {
    throw std::invalid_argument("Circuit: root out of range");
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.children_begin > node.children_end ||
        node.children_end > edges_.size()) {
      throw std::invalid_argument("Circuit: bad children span at " +
                                  NodeName(id));
    }
    bool childless = node.children_begin == node.children_end;
    switch (node.kind) {
      case NodeKind::kTrue:
      case NodeKind::kFalse:
        if (!childless) {
          throw std::invalid_argument("Circuit: constant with children at " +
                                      NodeName(id));
        }
        break;
      case NodeKind::kLiteral:
        if (!childless) {
          throw std::invalid_argument("Circuit: literal with children at " +
                                      NodeName(id));
        }
        if (LitVariable(node.literal) >= variable_count_) {
          throw std::invalid_argument(
              "Circuit: literal variable out of range at " + NodeName(id));
        }
        break;
      case NodeKind::kOr:
        if (node.decision != kNoDecision &&
            node.decision >= variable_count_) {
          throw std::invalid_argument(
              "Circuit: decision variable out of range at " + NodeName(id));
        }
        [[fallthrough]];
      case NodeKind::kAnd:
        for (std::uint32_t e = node.children_begin; e < node.children_end;
             ++e) {
          if (edges_[e] >= id) {
            throw std::invalid_argument(
                "Circuit: child does not precede its parent at " +
                NodeName(id));
          }
        }
        break;
    }
  }
  AnalyzeStructure();
}

void Circuit::AnalyzeStructure() {
  // One bitset pass building the per-node variable sets (kept for
  // Evaluate's fast path and for Validate) and deciding whether the
  // integer-scaled evaluation is sound: every AND must be
  // variable-disjoint and every OR smooth (all children with the same
  // variable set), in which case each product term of a node covers its
  // variable set with exactly one literal — so clearing each variable's
  // weight denominator scales the total by one known factor.
  varset_words_ = (static_cast<std::size_t>(variable_count_) + 63) / 64;
  varsets_.assign(nodes_.size() * varset_words_, 0);
  scalable_ = true;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    std::uint64_t* set =
        varsets_.data() + static_cast<std::size_t>(id) * varset_words_;
    switch (node.kind) {
      case NodeKind::kTrue:
      case NodeKind::kFalse:
        break;
      case NodeKind::kLiteral: {
        prop::VarId v = LitVariable(node.literal);
        set[v / 64] |= std::uint64_t{1} << (v % 64);
        break;
      }
      case NodeKind::kAnd:
        for (NodeId child : Children(id)) {
          std::span<const std::uint64_t> child_set = Varset(child);
          for (std::size_t w = 0; w < varset_words_; ++w) {
            if ((set[w] & child_set[w]) != 0) scalable_ = false;
            set[w] |= child_set[w];
          }
        }
        break;
      case NodeKind::kOr: {
        std::span<const NodeId> children = Children(id);
        for (NodeId child : children) {
          std::span<const std::uint64_t> child_set = Varset(child);
          for (std::size_t w = 0; w < varset_words_; ++w) {
            if (child != children.front() &&
                set[w] != child_set[w]) {
              scalable_ = false;
            }
            set[w] |= child_set[w];
          }
        }
        break;
      }
    }
  }
}

numeric::BigRational Circuit::Evaluate(const wmc::WeightMap& weights) const {
  EvalArena arena;
  return Evaluate(weights, &arena);
}

numeric::BigRational Circuit::Evaluate(const wmc::WeightMap& weights,
                                       EvalArena* arena) const {
  if (weights.size() < variable_count_) {
    throw std::invalid_argument(
        "Circuit::Evaluate: weight map covers " +
        std::to_string(weights.size()) + " of " +
        std::to_string(variable_count_) + " variables");
  }
  return scalable_ ? EvaluateScaled(weights, arena)
                   : EvaluateRational(weights, arena);
}

numeric::BigRational Circuit::EvaluateScaled(const wmc::WeightMap& weights,
                                             EvalArena* arena) const {
  using numeric::BigInt;
  // Clear denominators per covered variable (wmc::ClearDenominators scales
  // both phases of v by d_v). Each root product term picks exactly
  // one literal per covered variable (that is what scalable_ certifies),
  // so the root total is scaled by exactly Π d_v — divide once at the
  // end. The pass itself is pure BigInt arithmetic: no per-node gcd.
  std::vector<BigInt>& scaled_positive = arena->scaled_positive;
  std::vector<BigInt>& scaled_negative = arena->scaled_negative;
  scaled_positive.resize(variable_count_);
  scaled_negative.resize(variable_count_);
  std::span<const std::uint64_t> root_varset = Varset(root_);
  BigInt denominator(1);
  for (prop::VarId v = 0; v < variable_count_; ++v) {
    if ((root_varset[v / 64] & (std::uint64_t{1} << (v % 64))) == 0) {
      // Not under the root: zero the slot — a literal node outside the
      // root's cone may still read it, and the arena can hold values
      // from a previous evaluation.
      scaled_positive[v] = BigInt(0);
      scaled_negative[v] = BigInt(0);
      continue;
    }
    wmc::ScaledWeights scaled = wmc::ClearDenominators(weights.Get(v));
    scaled_positive[v] = std::move(scaled.positive);
    scaled_negative[v] = std::move(scaled.negative);
    denominator *= scaled.scale;
  }
  std::vector<BigInt>& value = arena->integer_values;
  value.resize(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    switch (node.kind) {
      case NodeKind::kTrue:
        value[id] = BigInt(1);
        break;
      case NodeKind::kFalse:
        // Explicit: the arena slot may hold a previous evaluation's value.
        value[id] = BigInt(0);
        break;
      case NodeKind::kLiteral: {
        prop::VarId v = LitVariable(node.literal);
        value[id] = LitPositive(node.literal) ? scaled_positive[v]
                                              : scaled_negative[v];
        break;
      }
      case NodeKind::kAnd: {
        BigInt product(1);
        for (NodeId child : Children(id)) product *= value[child];
        value[id] = std::move(product);
        break;
      }
      case NodeKind::kOr: {
        BigInt sum;
        for (NodeId child : Children(id)) sum += value[child];
        value[id] = std::move(sum);
        break;
      }
    }
  }
  // Moving the root value out leaves a valid (zero) slot; every slot is
  // rewritten before it is read on the next evaluation.
  return BigRational(std::move(value[root_]), std::move(denominator));
}

numeric::BigRational Circuit::EvaluateRational(const wmc::WeightMap& weights,
                                               EvalArena* arena) const {
  std::vector<BigRational>& value = arena->rational_values;
  value.resize(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    switch (node.kind) {
      case NodeKind::kTrue:
        value[id] = BigRational(1);
        break;
      case NodeKind::kFalse:
        value[id] = BigRational(0);
        break;
      case NodeKind::kLiteral:
        value[id] = weights.LiteralWeight(LitVariable(node.literal),
                                          LitPositive(node.literal));
        break;
      case NodeKind::kAnd: {
        BigRational product(1);
        for (NodeId child : Children(id)) product *= value[child];
        value[id] = std::move(product);
        break;
      }
      case NodeKind::kOr: {
        BigRational sum;
        for (NodeId child : Children(id)) sum += value[child];
        value[id] = std::move(sum);
        break;
      }
    }
  }
  BigRational result = std::move(value[root_]);
  value[root_] = BigRational(0);  // keep every arena slot a valid value
  return result;
}

Circuit::Stats Circuit::ComputeStats() const {
  Stats stats;
  stats.nodes = nodes_.size();
  stats.edges = edges_.size();
  std::vector<std::uint64_t> depth(nodes_.size(), 0);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    switch (node.kind) {
      case NodeKind::kTrue:
      case NodeKind::kFalse:
        ++stats.constant_nodes;
        break;
      case NodeKind::kLiteral:
        ++stats.literal_nodes;
        break;
      case NodeKind::kAnd:
        ++stats.and_nodes;
        break;
      case NodeKind::kOr:
        ++stats.or_nodes;
        break;
    }
    for (NodeId child : Children(id)) {
      depth[id] = std::max(depth[id], depth[child] + 1);
    }
  }
  stats.depth = depth[root_];
  return stats;
}

namespace {

// One surface literal of an OR child: the child itself when it is a
// literal node, or a direct literal child of an AND child. Determinism is
// witnessed at this depth for decision-traced circuits (every branch
// starts with its decision literal) and for c2d-style output.
struct FixedPhase {
  VarId variable;
  bool positive;
};

void SurfaceLiterals(const Circuit& circuit, Circuit::NodeId id,
                     std::vector<FixedPhase>* out) {
  out->clear();
  const Circuit::Node& node = circuit.node(id);
  if (node.kind == NodeKind::kLiteral) {
    out->push_back(
        {LitVariable(node.literal), LitPositive(node.literal)});
    return;
  }
  if (node.kind != NodeKind::kAnd) return;
  for (Circuit::NodeId child : circuit.Children(id)) {
    const Circuit::Node& grand = circuit.node(child);
    if (grand.kind == NodeKind::kLiteral) {
      out->push_back(
          {LitVariable(grand.literal), LitPositive(grand.literal)});
    }
  }
}

bool ConflictingPhase(const std::vector<FixedPhase>& a,
                      const std::vector<FixedPhase>& b) {
  for (const FixedPhase& pa : a) {
    for (const FixedPhase& pb : b) {
      if (pa.variable == pb.variable && pa.positive != pb.positive) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

bool Circuit::Validate(std::string* error) const {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  // The per-node variable sets were built once at construction
  // (AnalyzeStructure); the audit only re-walks AND children against a
  // scratch accumulator to name the shared variable of a violation.
  std::vector<std::uint64_t> accumulated(varset_words_);
  std::vector<FixedPhase> phases_a;
  std::vector<FixedPhase> phases_b;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    switch (node.kind) {
      case NodeKind::kTrue:
      case NodeKind::kFalse:
      case NodeKind::kLiteral:
        break;
      case NodeKind::kAnd: {
        std::fill(accumulated.begin(), accumulated.end(), 0);
        for (NodeId child : Children(id)) {
          std::span<const std::uint64_t> child_set = Varset(child);
          for (std::size_t w = 0; w < varset_words_; ++w) {
            if ((accumulated[w] & child_set[w]) != 0) {
              return fail("AND " + NodeName(id) +
                          " is not decomposable: children share variable " +
                          std::to_string(
                              w * 64 +
                              static_cast<std::size_t>(std::countr_zero(
                                  accumulated[w] & child_set[w]))));
            }
            accumulated[w] |= child_set[w];
          }
        }
        break;
      }
      case NodeKind::kOr: {
        std::span<const NodeId> children = Children(id);
        if (node.decision != kNoDecision) {
          // Decision-annotated OR: every child must fix the decision
          // variable, one phase per child.
          bool seen[2] = {false, false};
          for (NodeId child : children) {
            SurfaceLiterals(*this, child, &phases_a);
            bool fixes = false;
            for (const FixedPhase& phase : phases_a) {
              if (phase.variable != node.decision) continue;
              fixes = true;
              if (seen[phase.positive ? 1 : 0]) {
                return fail("OR " + NodeName(id) +
                            " is not deterministic: two children fix "
                            "decision variable " +
                            std::to_string(node.decision) +
                            " to the same phase");
              }
              seen[phase.positive ? 1 : 0] = true;
            }
            if (!fixes) {
              return fail("OR " + NodeName(id) + ": child " +
                          NodeName(child) +
                          " does not fix the decision variable " +
                          std::to_string(node.decision));
            }
          }
        } else {
          // No recorded decision: require a conflicting surface literal
          // for every pair of children.
          for (std::size_t i = 0; i < children.size(); ++i) {
            SurfaceLiterals(*this, children[i], &phases_a);
            for (std::size_t j = i + 1; j < children.size(); ++j) {
              SurfaceLiterals(*this, children[j], &phases_b);
              if (!ConflictingPhase(phases_a, phases_b)) {
                return fail("OR " + NodeName(id) +
                            " is not deterministic: children " +
                            NodeName(children[i]) + " and " +
                            NodeName(children[j]) +
                            " have no conflicting literal");
              }
            }
          }
        }
        break;
      }
    }
  }
  return true;
}

}  // namespace swfomc::nnf
