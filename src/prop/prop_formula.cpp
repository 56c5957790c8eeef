#include "prop/prop_formula.h"

#include <algorithm>
#include <stdexcept>

namespace swfomc::prop {

namespace {

PropFormula MakeNode(PropKind kind, VarId variable,
                     std::vector<PropFormula> children) {
  return std::make_shared<const PropNode>(kind, variable, std::move(children));
}

}  // namespace

PropFormula PropTrue() {
  static const PropFormula instance = MakeNode(PropKind::kTrue, 0, {});
  return instance;
}

PropFormula PropFalse() {
  static const PropFormula instance = MakeNode(PropKind::kFalse, 0, {});
  return instance;
}

PropFormula PropVar(VarId variable) {
  return MakeNode(PropKind::kVar, variable, {});
}

PropFormula PropNot(PropFormula operand) {
  switch (operand->kind()) {
    case PropKind::kTrue: return PropFalse();
    case PropKind::kFalse: return PropTrue();
    case PropKind::kNot: return operand->child();
    default: return MakeNode(PropKind::kNot, 0, {std::move(operand)});
  }
}

PropFormula PropAnd(std::vector<PropFormula> operands) {
  std::vector<PropFormula> flattened;
  for (PropFormula& f : operands) {
    if (f->kind() == PropKind::kTrue) continue;
    if (f->kind() == PropKind::kFalse) return PropFalse();
    if (f->kind() == PropKind::kAnd) {
      for (const PropFormula& child : f->children()) {
        flattened.push_back(child);
      }
    } else {
      flattened.push_back(std::move(f));
    }
  }
  if (flattened.empty()) return PropTrue();
  if (flattened.size() == 1) return flattened[0];
  return MakeNode(PropKind::kAnd, 0, std::move(flattened));
}

PropFormula PropOr(std::vector<PropFormula> operands) {
  std::vector<PropFormula> flattened;
  for (PropFormula& f : operands) {
    if (f->kind() == PropKind::kFalse) continue;
    if (f->kind() == PropKind::kTrue) return PropTrue();
    if (f->kind() == PropKind::kOr) {
      for (const PropFormula& child : f->children()) {
        flattened.push_back(child);
      }
    } else {
      flattened.push_back(std::move(f));
    }
  }
  if (flattened.empty()) return PropFalse();
  if (flattened.size() == 1) return flattened[0];
  return MakeNode(PropKind::kOr, 0, std::move(flattened));
}

PropFormula PropAnd(PropFormula a, PropFormula b) {
  return PropAnd(std::vector<PropFormula>{std::move(a), std::move(b)});
}

PropFormula PropOr(PropFormula a, PropFormula b) {
  return PropOr(std::vector<PropFormula>{std::move(a), std::move(b)});
}

std::uint32_t VariableUpperBound(const PropFormula& formula) {
  std::uint32_t bound = 0;
  if (formula->kind() == PropKind::kVar) {
    bound = formula->variable() + 1;
  }
  for (const PropFormula& child : formula->children()) {
    bound = std::max(bound, VariableUpperBound(child));
  }
  return bound;
}

bool EvaluateProp(const PropFormula& formula,
                  const std::vector<bool>& assignment) {
  switch (formula->kind()) {
    case PropKind::kTrue: return true;
    case PropKind::kFalse: return false;
    case PropKind::kVar: return assignment.at(formula->variable());
    case PropKind::kNot: return !EvaluateProp(formula->child(), assignment);
    case PropKind::kAnd:
      for (const PropFormula& child : formula->children()) {
        if (!EvaluateProp(child, assignment)) return false;
      }
      return true;
    case PropKind::kOr:
      for (const PropFormula& child : formula->children()) {
        if (EvaluateProp(child, assignment)) return true;
      }
      return false;
  }
  throw std::logic_error("EvaluateProp: unreachable");
}

std::string PropToString(const PropFormula& formula) {
  switch (formula->kind()) {
    case PropKind::kTrue: return "true";
    case PropKind::kFalse: return "false";
    case PropKind::kVar: return "x" + std::to_string(formula->variable());
    case PropKind::kNot: return "!" + PropToString(formula->child());
    case PropKind::kAnd:
    case PropKind::kOr: {
      std::string out = "(";
      const char* op = formula->kind() == PropKind::kAnd ? " & " : " | ";
      for (std::size_t i = 0; i < formula->children().size(); ++i) {
        if (i > 0) out += op;
        out += PropToString(formula->children()[i]);
      }
      return out + ")";
    }
  }
  throw std::logic_error("PropToString: unreachable");
}

}  // namespace swfomc::prop
