#include "logic/formula.h"


namespace swfomc::logic {

namespace {

Formula MakeNode(FormulaKind kind, RelationId relation,
                 std::vector<Term> arguments, std::vector<Formula> children,
                 std::string variable) {
  return std::make_shared<const FormulaNode>(kind, relation,
                                             std::move(arguments),
                                             std::move(children),
                                             std::move(variable));
}

void CollectVariables(const Formula& formula, std::set<std::string>* out) {
  switch (formula->kind()) {
    case FormulaKind::kAtom:
    case FormulaKind::kEquality:
      for (const Term& t : formula->arguments()) {
        if (t.IsVariable()) out->insert(t.name);
      }
      break;
    case FormulaKind::kForall:
    case FormulaKind::kExists:
      out->insert(formula->variable());
      [[fallthrough]];
    default:
      for (const Formula& child : formula->children()) {
        CollectVariables(child, out);
      }
      break;
  }
}

void CollectFreeVariables(const Formula& formula,
                          std::set<std::string>* bound,
                          std::set<std::string>* out) {
  switch (formula->kind()) {
    case FormulaKind::kAtom:
    case FormulaKind::kEquality:
      for (const Term& t : formula->arguments()) {
        if (t.IsVariable() && !bound->contains(t.name)) out->insert(t.name);
      }
      break;
    case FormulaKind::kForall:
    case FormulaKind::kExists: {
      bool was_bound = bound->contains(formula->variable());
      bound->insert(formula->variable());
      CollectFreeVariables(formula->child(), bound, out);
      if (!was_bound) bound->erase(formula->variable());
      break;
    }
    default:
      for (const Formula& child : formula->children()) {
        CollectFreeVariables(child, bound, out);
      }
      break;
  }
}

}  // namespace

Formula True() {
  static const Formula instance =
      MakeNode(FormulaKind::kTrue, 0, {}, {}, {});
  return instance;
}

Formula False() {
  static const Formula instance =
      MakeNode(FormulaKind::kFalse, 0, {}, {}, {});
  return instance;
}

Formula Atom(RelationId relation, std::vector<Term> arguments) {
  return MakeNode(FormulaKind::kAtom, relation, std::move(arguments), {}, {});
}

Formula Equals(Term left, Term right) {
  return MakeNode(FormulaKind::kEquality, 0,
                  {std::move(left), std::move(right)}, {}, {});
}

Formula Not(Formula operand) {
  if (operand->kind() == FormulaKind::kTrue) return False();
  if (operand->kind() == FormulaKind::kFalse) return True();
  return MakeNode(FormulaKind::kNot, 0, {}, {std::move(operand)}, {});
}

Formula And(std::vector<Formula> operands) {
  std::vector<Formula> flattened;
  for (Formula& f : operands) {
    if (f->kind() == FormulaKind::kTrue) continue;
    if (f->kind() == FormulaKind::kFalse) return False();
    if (f->kind() == FormulaKind::kAnd) {
      for (const Formula& child : f->children()) flattened.push_back(child);
    } else {
      flattened.push_back(std::move(f));
    }
  }
  if (flattened.empty()) return True();
  if (flattened.size() == 1) return flattened[0];
  return MakeNode(FormulaKind::kAnd, 0, {}, std::move(flattened), {});
}

Formula And(Formula a, Formula b) {
  return And(std::vector<Formula>{std::move(a), std::move(b)});
}

Formula Or(std::vector<Formula> operands) {
  std::vector<Formula> flattened;
  for (Formula& f : operands) {
    if (f->kind() == FormulaKind::kFalse) continue;
    if (f->kind() == FormulaKind::kTrue) return True();
    if (f->kind() == FormulaKind::kOr) {
      for (const Formula& child : f->children()) flattened.push_back(child);
    } else {
      flattened.push_back(std::move(f));
    }
  }
  if (flattened.empty()) return False();
  if (flattened.size() == 1) return flattened[0];
  return MakeNode(FormulaKind::kOr, 0, {}, std::move(flattened), {});
}

Formula Or(Formula a, Formula b) {
  return Or(std::vector<Formula>{std::move(a), std::move(b)});
}

Formula Implies(Formula antecedent, Formula consequent) {
  return MakeNode(FormulaKind::kImplies, 0, {},
                  {std::move(antecedent), std::move(consequent)}, {});
}

Formula Iff(Formula a, Formula b) {
  return MakeNode(FormulaKind::kIff, 0, {}, {std::move(a), std::move(b)}, {});
}

Formula Forall(std::string variable, Formula body) {
  return MakeNode(FormulaKind::kForall, 0, {}, {std::move(body)},
                  std::move(variable));
}

Formula Exists(std::string variable, Formula body) {
  return MakeNode(FormulaKind::kExists, 0, {}, {std::move(body)},
                  std::move(variable));
}

Formula Forall(const std::vector<std::string>& variables, Formula body) {
  for (std::size_t i = variables.size(); i-- > 0;) {
    body = Forall(variables[i], std::move(body));
  }
  return body;
}

Formula Exists(const std::vector<std::string>& variables, Formula body) {
  for (std::size_t i = variables.size(); i-- > 0;) {
    body = Exists(variables[i], std::move(body));
  }
  return body;
}

Formula Forall(std::initializer_list<std::string> variables, Formula body) {
  return Forall(std::vector<std::string>(variables), std::move(body));
}

std::set<std::string> FreeVariables(const Formula& formula) {
  std::set<std::string> bound, result;
  CollectFreeVariables(formula, &bound, &result);
  return result;
}

bool IsSentence(const Formula& formula) {
  return FreeVariables(formula).empty();
}

bool InFragmentFOk(const Formula& formula, std::size_t k) {
  std::set<std::string> names;
  CollectVariables(formula, &names);
  return names.size() <= k;
}

bool IsEqualityFree(const Formula& formula) {
  if (formula->kind() == FormulaKind::kEquality) return false;
  for (const Formula& child : formula->children()) {
    if (!IsEqualityFree(child)) return false;
  }
  return true;
}

bool StructurallyEqual(const Formula& a, const Formula& b) {
  if (a.get() == b.get()) return true;
  if (a->kind() != b->kind()) return false;
  if (a->relation() != b->relation()) return false;
  if (a->arguments() != b->arguments()) return false;
  if (a->variable() != b->variable()) return false;
  if (a->children().size() != b->children().size()) return false;
  for (std::size_t i = 0; i < a->children().size(); ++i) {
    if (!StructurallyEqual(a->children()[i], b->children()[i])) return false;
  }
  return true;
}

}  // namespace swfomc::logic
