#include "nnf/circuit_builder.h"

#include <stdexcept>
#include <utility>

namespace swfomc::nnf {

CircuitBuilder::CircuitBuilder(std::uint32_t variable_count)
    : variable_count_(variable_count),
      literal_node_(static_cast<std::size_t>(variable_count) * 2, kNoNode),
      free_node_(variable_count, kNoNode) {}

CircuitBuilder::NodeId CircuitBuilder::Append(
    Circuit::Node node, std::span<const NodeId> children) {
  node.children_begin = static_cast<std::uint32_t>(edges_.size());
  edges_.insert(edges_.end(), children.begin(), children.end());
  node.children_end = static_cast<std::uint32_t>(edges_.size());
  nodes_.push_back(node);
  return static_cast<NodeId>(nodes_.size() - 1);
}

CircuitBuilder::NodeId CircuitBuilder::True() {
  if (true_ == kNoNode) {
    true_ = Append(Circuit::Node{.kind = NodeKind::kTrue}, {});
  }
  return true_;
}

CircuitBuilder::NodeId CircuitBuilder::False() {
  if (false_ == kNoNode) {
    false_ = Append(Circuit::Node{.kind = NodeKind::kFalse}, {});
  }
  return false_;
}

CircuitBuilder::NodeId CircuitBuilder::Literal(prop::Lit lit) {
  NodeId& memo = literal_node_.at(lit);
  if (memo == kNoNode) {
    memo = Append(Circuit::Node{.kind = NodeKind::kLiteral, .literal = lit},
                  {});
  }
  return memo;
}

CircuitBuilder::NodeId CircuitBuilder::FreeVariable(prop::VarId variable) {
  NodeId& memo = free_node_.at(variable);
  if (memo == kNoNode) {
    NodeId phases[2] = {Literal(prop::MakeLit(variable, true)),
                        Literal(prop::MakeLit(variable, false))};
    memo = Append(
        Circuit::Node{.kind = NodeKind::kOr, .decision = variable}, phases);
  }
  return memo;
}

CircuitBuilder::NodeId CircuitBuilder::And(std::span<const NodeId> children) {
  std::vector<NodeId> kept;
  kept.reserve(children.size());
  for (NodeId child : children) {
    if (child == true_) continue;  // neutral factor
    if (child == false_) return False();
    kept.push_back(child);
  }
  if (kept.empty()) return True();
  if (kept.size() == 1) return kept.front();
  return Append(Circuit::Node{.kind = NodeKind::kAnd}, kept);
}

CircuitBuilder::NodeId CircuitBuilder::Or(prop::VarId decision,
                                          std::span<const NodeId> children) {
  std::vector<NodeId> kept;
  kept.reserve(children.size());
  for (NodeId child : children) {
    if (child == false_) continue;  // zero summand
    kept.push_back(child);
  }
  if (kept.empty()) return False();
  if (kept.size() == 1) return kept.front();
  return Append(Circuit::Node{.kind = NodeKind::kOr, .decision = decision},
                kept);
}

void CircuitBuilder::Root(NodeId root) { root_ = root; }

Circuit CircuitBuilder::Finish(std::uint32_t auxiliary_begin) {
  if (root_ == kNoNode) {
    throw std::logic_error("CircuitBuilder::Finish: no root traced");
  }
  // Reachability from the root. Children always precede their parent, so
  // keeping the reachable nodes in arena order preserves topological
  // order and makes the root the highest surviving id.
  std::vector<char> reachable(nodes_.size(), 0);
  std::vector<NodeId> stack = {root_};
  reachable[root_] = 1;
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    const Circuit::Node& node = nodes_[id];
    for (std::uint32_t e = node.children_begin; e < node.children_end; ++e) {
      if (!reachable[edges_[e]]) {
        reachable[edges_[e]] = 1;
        stack.push_back(edges_[e]);
      }
    }
  }
  std::vector<NodeId> renumber(nodes_.size(), kNoNode);
  std::vector<Circuit::Node> nodes;
  std::vector<NodeId> edges;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!reachable[id]) continue;
    renumber[id] = static_cast<NodeId>(nodes.size());
    Circuit::Node node = nodes_[id];
    std::uint32_t begin = static_cast<std::uint32_t>(edges.size());
    for (std::uint32_t e = node.children_begin; e < node.children_end; ++e) {
      edges.push_back(renumber[edges_[e]]);
    }
    node.children_begin = begin;
    node.children_end = static_cast<std::uint32_t>(edges.size());
    nodes.push_back(node);
  }
  NodeId root = renumber[root_];
  // Release (not just clear) the trace arena before the circuit lowers
  // its evaluation tape.
  std::vector<Circuit::Node>().swap(nodes_);
  std::vector<NodeId>().swap(edges_);
  return Circuit(variable_count_, std::move(nodes), std::move(edges), root,
                 auxiliary_begin);
}

}  // namespace swfomc::nnf
