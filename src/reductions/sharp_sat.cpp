#include "reductions/sharp_sat.h"

#include <stdexcept>

#include "grounding/grounded_wfomc.h"
#include "numeric/combinatorics.h"
#include "reductions/figure2_gadget.h"

namespace swfomc::reductions {

namespace {

using logic::Atom;
using logic::Formula;
using logic::Term;

Term X() { return Term::Var("x"); }
Term Y() { return Term::Var("y"); }

// Replaces propositional variables by their γ_i sentences:
// γ_i = ∃x (α_i(x) & ∃y S(y,x)).
Formula Translate(const prop::PropFormula& formula,
                  const Figure2Gadget& gadget, logic::RelationId s) {
  switch (formula->kind()) {
    case prop::PropKind::kTrue:
      return logic::True();
    case prop::PropKind::kFalse:
      return logic::False();
    case prop::PropKind::kVar: {
      std::uint32_t i = formula->variable() + 1;  // 1-based chain position
      Formula alpha = AlphaFormula(gadget, i, /*target_is_x=*/true);
      Formula has_s = logic::Exists("y", Atom(s, {Y(), X()}));
      return logic::Exists("x",
                           logic::And(std::move(alpha), std::move(has_s)));
    }
    case prop::PropKind::kNot:
      return logic::Not(Translate(formula->child(), gadget, s));
    case prop::PropKind::kAnd:
    case prop::PropKind::kOr: {
      std::vector<Formula> children;
      children.reserve(formula->children().size());
      for (const prop::PropFormula& child : formula->children()) {
        children.push_back(Translate(child, gadget, s));
      }
      return formula->kind() == prop::PropKind::kAnd
                 ? logic::And(std::move(children))
                 : logic::Or(std::move(children));
    }
  }
  throw std::logic_error("Translate: unreachable");
}

}  // namespace

SharpSatReduction EncodeSharpSat(const prop::PropFormula& boolean_formula,
                                 std::uint32_t num_variables) {
  if (num_variables < 2) {
    throw std::invalid_argument(
        "EncodeSharpSat: need n >= 2 (the A and B chain endpoints must be "
        "distinct)");
  }
  if (prop::VariableUpperBound(boolean_formula) > num_variables) {
    throw std::invalid_argument(
        "EncodeSharpSat: formula mentions variables beyond num_variables");
  }
  SharpSatReduction result;
  Figure2Gadget gadget = DeclareFigure2Gadget(&result.vocabulary);
  logic::RelationId s = result.vocabulary.AddRelation("S", 2);
  std::uint32_t n = num_variables;
  result.domain_size = n + 1;

  std::vector<Formula> parts = ChainConstraints(gadget, n);
  // S goes from the C element to non-C (chain) elements only.
  parts.push_back(logic::Forall(
      {"x", "y"},
      logic::Implies(Atom(s, {X(), Y()}),
                     logic::And(Atom(gadget.c, {X()}),
                                logic::Not(Atom(gadget.c, {Y()}))))));
  // The Boolean formula itself.
  parts.push_back(Translate(boolean_formula, gadget, s));

  result.sentence = logic::And(std::move(parts));
  if (!logic::InFragmentFOk(result.sentence, 2)) {
    throw std::logic_error("EncodeSharpSat: sentence left FO2");
  }
  return result;
}

numeric::BigInt SharpSatViaFOMC(const prop::PropFormula& boolean_formula,
                                std::uint32_t num_variables) {
  SharpSatReduction reduction =
      EncodeSharpSat(boolean_formula, num_variables);
  numeric::BigInt total = grounding::GroundedFOMC(
      reduction.sentence, reduction.vocabulary, reduction.domain_size);
  numeric::BigInt factorial = numeric::Factorial(reduction.domain_size);
  numeric::BigInt quotient, remainder;
  numeric::BigInt::DivMod(total, factorial, &quotient, &remainder);
  if (!remainder.IsZero()) {
    throw std::logic_error(
        "SharpSatViaFOMC: FOMC not divisible by (n+1)! — gadget violated");
  }
  return quotient;
}

}  // namespace swfomc::reductions
