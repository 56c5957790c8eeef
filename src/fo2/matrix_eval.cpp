#include "fo2/matrix_eval.h"

#include <stdexcept>
#include <utility>

#include "fo2/fo2_normal_form.h"
#include "logic/transform.h"

namespace swfomc::fo2 {

using logic::Formula;
using logic::FormulaKind;
using logic::RelationId;

namespace {

bool IsX(const logic::Term& term) { return term.name == UniversalForm::x(); }

}  // namespace

Formula SubstituteZeroAry(const Formula& formula, RelationId relation,
                          bool value) {
  if (formula->kind() == FormulaKind::kAtom &&
      formula->relation() == relation && formula->arguments().empty()) {
    return value ? logic::True() : logic::False();
  }
  return logic::MapChildren(formula, [&](const Formula& child) {
    return SubstituteZeroAry(child, relation, value);
  });
}

MatrixEvaluator::MatrixEvaluator(
    const logic::Vocabulary& vocabulary,
    const std::vector<RelationId>& unary_relations,
    const std::vector<RelationId>& binary_relations)
    : unary_count_(unary_relations.size()), slot_(vocabulary.size(), 0) {
  for (std::size_t i = 0; i < unary_relations.size(); ++i) {
    slot_[unary_relations[i]] = i;
  }
  for (std::size_t i = 0; i < binary_relations.size(); ++i) {
    slot_[binary_relations[i]] = i;
  }
}

bool MatrixEvaluator::Eval(const Formula& formula, const PairEnv& env) const {
  switch (formula->kind()) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kEquality: {
      bool left_is_x = IsX(formula->arguments()[0]);
      bool right_is_x = IsX(formula->arguments()[1]);
      if (left_is_x == right_is_x) return true;  // x=x or y=y
      return env.same_element;                   // x=y
    }
    case FormulaKind::kAtom: {
      RelationId r = formula->relation();
      const auto& args = formula->arguments();
      if (args.size() == 1) {
        bool is_x = IsX(args[0]) || env.same_element;
        return ((is_x ? env.cell_x : env.cell_y) >> slot_[r]) & 1;
      }
      if (args.size() == 2) {
        bool first_x = IsX(args[0]) || env.same_element;
        bool second_x = IsX(args[1]) || env.same_element;
        std::size_t slot = slot_[r];
        if (first_x == second_x) {
          return ((first_x ? env.cell_x : env.cell_y) >>
                  (unary_count_ + slot)) & 1;
        }
        return (env.pair >> (2 * slot + (first_x ? 0 : 1))) & 1;
      }
      throw std::logic_error("MatrixEvaluator: unexpected arity");
    }
    case FormulaKind::kNot:
      return !Eval(formula->child(), env);
    case FormulaKind::kAnd:
      for (const Formula& child : formula->children()) {
        if (!Eval(child, env)) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (const Formula& child : formula->children()) {
        if (Eval(child, env)) return true;
      }
      return false;
    case FormulaKind::kImplies:
      return !Eval(formula->child(0), env) || Eval(formula->child(1), env);
    case FormulaKind::kIff:
      return Eval(formula->child(0), env) == Eval(formula->child(1), env);
    default:
      throw std::logic_error("MatrixEvaluator: quantifier in matrix");
  }
}

}  // namespace swfomc::fo2
