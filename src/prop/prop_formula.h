#ifndef SWFOMC_PROP_PROP_FORMULA_H_
#define SWFOMC_PROP_PROP_FORMULA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace swfomc::prop {

/// Propositional variable id (0-based).
using VarId = std::uint32_t;

enum class PropKind { kTrue, kFalse, kVar, kNot, kAnd, kOr };

class PropNode;
/// Immutable shared propositional formula (the lineage F_{Φ,n} of Section 2
/// is represented in this form before CNF conversion).
using PropFormula = std::shared_ptr<const PropNode>;

class PropNode {
 public:
  PropKind kind() const { return kind_; }
  VarId variable() const { return variable_; }
  const std::vector<PropFormula>& children() const { return children_; }
  const PropFormula& child(std::size_t i = 0) const { return children_.at(i); }

  PropNode(PropKind kind, VarId variable, std::vector<PropFormula> children)
      : kind_(kind), variable_(variable), children_(std::move(children)) {}

 private:
  PropKind kind_;
  VarId variable_;
  std::vector<PropFormula> children_;
};

PropFormula PropTrue();
PropFormula PropFalse();
PropFormula PropVar(VarId variable);
/// Simplifying connectives: constants are folded, nested And/Or flattened.
PropFormula PropNot(PropFormula operand);
PropFormula PropAnd(std::vector<PropFormula> operands);
PropFormula PropOr(std::vector<PropFormula> operands);
PropFormula PropAnd(PropFormula a, PropFormula b);
PropFormula PropOr(PropFormula a, PropFormula b);

/// Largest variable id + 1 occurring in the formula (0 if none).
std::uint32_t VariableUpperBound(const PropFormula& formula);

/// Evaluates under a total assignment (indexed by VarId).
bool EvaluateProp(const PropFormula& formula,
                  const std::vector<bool>& assignment);

/// Debug rendering, e.g. "(x0 & !(x1 | x2))".
std::string PropToString(const PropFormula& formula);

}  // namespace swfomc::prop

#endif  // SWFOMC_PROP_PROP_FORMULA_H_
