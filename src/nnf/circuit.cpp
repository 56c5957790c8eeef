#include "nnf/circuit.h"

#include <algorithm>
#include <bit>
#include <map>
#include <span>
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

// Π_{v < count} (w_v + w̄_v), one power per run of equal weight pairs
// (under symmetric weights the tuples of one relation form one run).
BigRational TotalWeight(const wmc::WeightMap& weights, VarId count) {
  BigRational total(1);
  for (VarId begin = 0; begin < count;) {
    const wmc::VariableWeights& pair = weights.Get(begin);
    VarId end = begin + 1;
    while (end < count && weights.Get(end).positive == pair.positive &&
           weights.Get(end).negative == pair.negative) {
      ++end;
    }
    total *= BigRational::Pow(pair.Total(), end - begin);
    begin = end;
  }
  return total;
}

}  // namespace

NonDecomposableAnd::NonDecomposableAnd(std::uint32_t and_node,
                                       prop::VarId shared)
    : std::invalid_argument("Circuit: AND " + NodeName(and_node) +
                            " is not decomposable: children share variable " +
                            std::to_string(shared)),
      node(and_node),
      variable(shared) {}

Circuit::Circuit(std::uint32_t variable_count, std::vector<Node> nodes,
                 std::vector<NodeId> edges, NodeId root,
                 std::uint32_t auxiliary_begin)
    : variable_count_(variable_count),
      auxiliary_begin_(std::min(auxiliary_begin, variable_count)),
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
  LowerTape(NodeVarsets());
}

std::vector<std::uint64_t> Circuit::NodeVarsets() const {
  std::size_t words = VarsetWords();
  std::vector<std::uint64_t> varsets(nodes_.size() * words, 0);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    std::uint64_t* set = varsets.data() + static_cast<std::size_t>(id) * words;
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
      case NodeKind::kOr:
        for (NodeId child : Children(id)) {
          const std::uint64_t* child_set =
              varsets.data() + static_cast<std::size_t>(child) * words;
          for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t shared = set[w] & child_set[w];
            if (node.kind == NodeKind::kAnd && shared != 0) {
              throw NonDecomposableAnd(
                  id, static_cast<VarId>(w * 64 + static_cast<std::size_t>(
                                                      std::countr_zero(shared))));
            }
            set[w] |= child_set[w];
          }
        }
        break;
    }
  }
  return varsets;
}

void Circuit::LowerTape(const std::vector<std::uint64_t>& varsets) {
  using numeric::BigInt;
  // References while lowering: a literal input is its compact literal id
  // (< inputs), a constant carries kConstantRef over its constants_
  // index, and the k-th emitted op's value is inputs + k. The final
  // numbering — inputs, then constants, then slots, all indices into
  // EvalArena::integer_values — is assigned once the whole tape, and so
  // every value's last reader, is known.
  if (2 * std::uint64_t{auxiliary_begin_} >= kConstantRef) {
    throw std::invalid_argument("Circuit: too large for the evaluation tape");
  }
  const std::uint32_t inputs = 2 * auxiliary_begin_;
  constexpr std::uint32_t kZero = kConstantRef | 0;
  constexpr std::uint32_t kOne = kConstantRef | 1;
  constants_ = {BigInt(0), BigInt(1)};
  std::map<BigInt, std::uint32_t> interned;  // constants past 0 and 1
  auto intern = [&](BigInt value) -> std::uint32_t {
    if (value.IsZero()) return kZero;
    if (value.IsOne()) return kOne;
    auto [it, inserted] = interned.try_emplace(
        value, static_cast<std::uint32_t>(constants_.size()));
    if (inserted) constants_.push_back(std::move(value));
    return kConstantRef | it->second;
  };

  // The product (or sum) of `terms` as one op. The non-constant terms
  // become its operands; the constant ones fold into one coefficient,
  // starting from the neutral element, and a zero factor absorbs the
  // whole product. Returns the value's reference: a constant, an alias of
  // a lone operand, or the new op.
  auto combine = [&](bool product,
                     std::span<const std::uint32_t> terms) -> std::uint32_t {
    const std::uint32_t neutral = product ? kOne : kZero;
    const std::size_t first = operands_.size();
    BigInt coefficient(product ? 1 : 0);
    bool folded = false;
    for (std::uint32_t term : terms) {
      if ((term & kConstantRef) == 0) {
        operands_.push_back(term);
      } else if (term != neutral) {
        const BigInt& value = constants_[term & ~kConstantRef];
        if (product) {
          coefficient *= value;
        } else {
          coefficient += value;
        }
        folded = true;
      }
    }
    std::uint32_t constant = folded ? intern(std::move(coefficient)) : neutral;
    std::size_t pending = operands_.size() - first;
    if (pending == 0 || (product && constant == kZero)) {
      operands_.resize(first);
      return constant;
    }
    if (pending == 1 && constant == neutral) {
      std::uint32_t alias = operands_.back();
      operands_.pop_back();
      return alias;
    }
    if (constant != neutral) operands_.push_back(constant);
    if (operands_.size() >= kConstantRef ||
        inputs + tape_.size() >= kConstantRef) {
      throw std::invalid_argument("Circuit: too large for the evaluation tape");
    }
    tape_.push_back(
        {.operands_end = static_cast<std::uint32_t>(operands_.size()),
         .product = product});
    return inputs + static_cast<std::uint32_t>(tape_.size() - 1);
  };

  // The product of `terms`, as one op when there are at most kProductRun
  // of them and otherwise as a balanced tree: one op per run, then
  // pairwise products of the runs' values. The tape multiplies an op's
  // operands in sequence, so k factors in one op would cost time
  // quadratic in the result's size.
  constexpr std::size_t kProductRun = 64;
  std::vector<std::uint32_t> level;
  auto product_tree = [&](std::span<const std::uint32_t> terms) {
    if (terms.size() <= kProductRun) return combine(true, terms);
    level.clear();
    for (std::size_t i = 0; i < terms.size(); i += kProductRun) {
      level.push_back(combine(
          true, terms.subspan(i, std::min(kProductRun, terms.size() - i))));
    }
    while (level.size() > 1) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < level.size(); i += 2) {
        level[kept++] = i + 1 < level.size()
                            ? combine(true, std::span(level).subspan(i, 2))
                            : level[i];
      }
      level.resize(kept);
    }
    return level[0];
  };

  // Smoothing: `reference` times (w_v + w̄_v) for every non-auxiliary
  // variable in `want` but not in `have`. Each sum is one op, emitted on
  // first use and shared; zero stays zero.
  const std::size_t words = VarsetWords();
  auto varset = [&](NodeId id) {
    return varsets.data() + static_cast<std::size_t>(id) * words;
  };
  std::vector<std::uint64_t> weighted(words, 0);  // v < auxiliary_begin_
  for (VarId v = 0; v < auxiliary_begin_; ++v) {
    weighted[v / 64] |= std::uint64_t{1} << (v % 64);
  }
  std::vector<std::uint32_t> sums(auxiliary_begin_, kNoOp);
  std::vector<std::uint32_t> factors;
  auto smooth = [&](std::uint32_t reference, const std::uint64_t* have,
                    const std::uint64_t* want) -> std::uint32_t {
    if (reference == kZero) return reference;
    factors.clear();
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t missing = want[w] & weighted[w] & ~have[w];
           missing != 0; missing &= missing - 1) {
        auto v = static_cast<VarId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(missing)));
        if (sums[v] == kNoOp) {
          const std::uint32_t literals[] = {prop::MakeLit(v, true),
                                            prop::MakeLit(v, false)};
          sums[v] = combine(false, literals);
        }
        if (factors.empty()) factors.push_back(reference);
        factors.push_back(sums[v]);
      }
    }
    return factors.empty() ? reference : product_tree(factors);
  };

  std::vector<std::uint32_t> ref(root_ + 1, kZero);
  std::vector<std::uint32_t> terms;
  operands_.reserve(edges_.size());
  for (NodeId id = 0; id <= root_; ++id) {
    const Node& node = nodes_[id];
    switch (node.kind) {
      case NodeKind::kTrue:
        ref[id] = kOne;
        continue;
      case NodeKind::kFalse:
        ref[id] = kZero;
        continue;
      case NodeKind::kLiteral:
        ref[id] = LitVariable(node.literal) >= auxiliary_begin_
                      ? kOne
                      : static_cast<std::uint32_t>(node.literal);
        continue;
      case NodeKind::kAnd:
      case NodeKind::kOr:
        break;
    }
    const bool product = node.kind == NodeKind::kAnd;
    terms.clear();
    for (NodeId child : Children(id)) {
      terms.push_back(product ? ref[child]
                              : smooth(ref[child], varset(child), varset(id)));
    }
    ref[id] = combine(product, terms);
  }
  root_ref_ = smooth(ref[root_], varset(root_), weighted.data());

  // Liveness, in one backward sweep: the first reader met is a value's
  // last. An op no live op reads — one outside the root's cone, or
  // under a folded-away zero — is dead and is dropped below. The root's
  // value (an earlier op's, through an alias, or the last op's) never
  // dies.
  auto op_of = [&](std::uint32_t reference) -> std::uint32_t {
    return (reference & kConstantRef) == 0 && reference >= inputs
               ? reference - inputs
               : kNoOp;
  };
  constexpr std::uint32_t kDead = kNoOp - 1;
  std::vector<std::uint32_t> last_read(tape_.size(), kDead);
  if (op_of(root_ref_) != kNoOp) last_read[op_of(root_ref_)] = kNoOp;
  for (std::uint32_t op = static_cast<std::uint32_t>(tape_.size()); op-- > 0;) {
    if (last_read[op] == kDead) continue;
    std::uint32_t begin = op == 0 ? 0 : tape_[op - 1].operands_end;
    for (std::uint32_t e = begin; e < tape_[op].operands_end; ++e) {
      std::uint32_t read = op_of(operands_[e]);
      if (read != kNoOp && last_read[read] == kDead) last_read[read] = op;
    }
  }

  // Slot numbering, compacting the live ops in place: each op takes a
  // free slot for its result before its dying operands give theirs back,
  // so it never writes a slot it reads.
  const auto slot_base =
      static_cast<std::uint32_t>(inputs + constants_.size());
  std::vector<std::uint32_t> slot(tape_.size());
  std::vector<std::uint32_t> free_slots;
  auto final_index = [&](std::uint32_t reference) -> std::uint32_t {
    if ((reference & kConstantRef) != 0) {
      return inputs + (reference & ~kConstantRef);
    }
    return reference < inputs ? reference
                              : slot_base + slot[reference - inputs];
  };
  std::uint32_t kept_ops = 0;
  std::uint32_t kept_operands = 0;
  std::uint32_t begin = 0;
  for (std::uint32_t op = 0; op < tape_.size(); ++op) {
    const std::uint32_t end = tape_[op].operands_end;
    if (last_read[op] == kDead) {
      begin = end;
      continue;
    }
    if (free_slots.empty()) {
      slot[op] = tape_slots_++;
    } else {
      slot[op] = free_slots.back();
      free_slots.pop_back();
    }
    for (std::uint32_t e = begin; e < end; ++e) {
      std::uint32_t read = op_of(operands_[e]);
      operands_[kept_operands++] = final_index(operands_[e]);
      if (read != kNoOp && last_read[read] == op) {
        free_slots.push_back(slot[read]);
        last_read[read] = kNoOp;  // a repeated operand is freed once
      }
    }
    tape_[kept_ops++] = {.dst = slot_base + slot[op],
                         .operands_end = kept_operands,
                         .product = tape_[op].product};
    begin = end;
  }
  root_ref_ = final_index(root_ref_);
  tape_.resize(kept_ops);
  operands_.resize(kept_operands);
  tape_.shrink_to_fit();
  operands_.shrink_to_fit();
}

std::size_t Circuit::MemoryBytes() const {
  std::size_t bytes = nodes_.capacity() * sizeof(Node) +
                      edges_.capacity() * sizeof(NodeId) +
                      tape_.capacity() * sizeof(TapeOp) +
                      operands_.capacity() * sizeof(std::uint32_t) +
                      constants_.capacity() * sizeof(numeric::BigInt);
  for (const numeric::BigInt& constant : constants_) {
    bytes += constant.HeapBytes();
  }
  return bytes;
}

void Circuit::SetComplement(std::uint32_t variables) {
  if (variables > variable_count_) {
    throw std::invalid_argument(
        "Circuit::SetComplement: " + std::to_string(variables) +
        " variables exceed the circuit's " + std::to_string(variable_count_));
  }
  complement_ = variables;
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
  for (VarId v = auxiliary_begin_; v < variable_count_; ++v) {
    const wmc::VariableWeights& pair = weights.Get(v);
    if (!pair.positive.IsOne() || !pair.negative.IsOne()) {
      throw std::invalid_argument(
          "Circuit::Evaluate: variable " + std::to_string(v) +
          " is a Tseitin auxiliary and must weigh (1, 1), not (" +
          pair.positive.ToString() + ", " + pair.negative.ToString() + ")");
    }
  }
  BigRational count = EvaluateTape(weights, arena);
  if (!complement_.has_value()) return count;
  return TotalWeight(weights, *complement_) - count;
}

numeric::BigRational Circuit::EvaluateTape(const wmc::WeightMap& weights,
                                           EvalArena* arena) const {
  // Smoothing made every root term pick exactly one literal per
  // non-auxiliary variable, so with the cleared literal weights as inputs
  // the root total is scaled by exactly Π d_v — divide once at the end.
  // Auxiliaries weigh (1, 1), so their folded literals need no input.
  using numeric::BigInt;
  const std::size_t inputs = 2 * static_cast<std::size_t>(auxiliary_begin_);
  std::vector<BigInt>& value = arena->integer_values;
  value.resize(inputs + constants_.size() + tape_slots_);
  BigInt denominator = wmc::ClearDenominators(
      weights, auxiliary_begin_, std::span(value).first(inputs));
  std::copy(constants_.begin(), constants_.end(),
            value.begin() + static_cast<std::ptrdiff_t>(inputs));
  const std::uint32_t* operand = operands_.data();
  for (const TapeOp& op : tape_) {
    const std::uint32_t* end = operands_.data() + op.operands_end;
    BigInt& out = value[op.dst];
    out = value[*operand++];
    if (op.product) {
      for (; operand != end; ++operand) out *= value[*operand];
    } else {
      for (; operand != end; ++operand) out += value[*operand];
    }
  }
  // Moving the root value out leaves a valid (zero) entry; every entry is
  // rewritten before it is read on the next evaluation.
  return BigRational(std::move(value[root_ref_]), std::move(denominator));
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
  std::vector<FixedPhase> phases_a;
  std::vector<FixedPhase> phases_b;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    switch (node.kind) {
      case NodeKind::kTrue:
      case NodeKind::kFalse:
      case NodeKind::kLiteral:
      case NodeKind::kAnd:
        break;
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
