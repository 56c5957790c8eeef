#ifndef SWFOMC_LOGIC_FORMULA_H_
#define SWFOMC_LOGIC_FORMULA_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "logic/vocabulary.h"

namespace swfomc::logic {

/// A first-order term: either a logical variable (named) or a domain
/// constant (an element of [n] = {0, .., n-1}).
struct Term {
  enum class Kind { kVariable, kConstant };

  static Term Var(std::string name) {
    return Term{Kind::kVariable, std::move(name), 0};
  }
  static Term Const(std::uint64_t value) {
    return Term{Kind::kConstant, {}, value};
  }

  bool IsVariable() const { return kind == Kind::kVariable; }
  bool IsConstant() const { return kind == Kind::kConstant; }

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind == b.kind && a.name == b.name && a.value == b.value;
  }
  friend bool operator!=(const Term& a, const Term& b) { return !(a == b); }
  friend bool operator<(const Term& a, const Term& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.name != b.name) return a.name < b.name;
    return a.value < b.value;
  }

  Kind kind;
  std::string name;     // variable name, when kind == kVariable
  std::uint64_t value;  // constant, when kind == kConstant
};

enum class FormulaKind {
  kTrue,
  kFalse,
  kAtom,      // R(t_1, .., t_k)
  kEquality,  // t_1 = t_2
  kNot,
  kAnd,  // n-ary
  kOr,   // n-ary
  kImplies,
  kIff,
  kForall,
  kExists,
};

class FormulaNode;

/// First-order formulas are immutable and shared; Formula is the handle
/// used throughout the library.
using Formula = std::shared_ptr<const FormulaNode>;

/// An immutable FO formula node over a fixed relational vocabulary with
/// equality (Section 2 of the paper). Build instances via the factory
/// functions below, never directly.
class FormulaNode {
 public:
  FormulaKind kind() const { return kind_; }

  // -- Atom accessors (kind == kAtom) --
  RelationId relation() const { return relation_; }
  const std::vector<Term>& arguments() const { return arguments_; }

  // -- Equality accessors (kind == kEquality): arguments()[0] = [1] --

  // -- Connective/quantifier accessors --
  const std::vector<Formula>& children() const { return children_; }
  const Formula& child(std::size_t i = 0) const { return children_.at(i); }
  const std::string& variable() const { return variable_; }

  // Internal constructor; use the factories.
  FormulaNode(FormulaKind kind, RelationId relation,
              std::vector<Term> arguments, std::vector<Formula> children,
              std::string variable)
      : kind_(kind),
        relation_(relation),
        arguments_(std::move(arguments)),
        children_(std::move(children)),
        variable_(std::move(variable)) {}

 private:
  FormulaKind kind_;
  RelationId relation_ = 0;
  std::vector<Term> arguments_;
  std::vector<Formula> children_;
  std::string variable_;
};

/// The constant true / false formulas.
Formula True();
Formula False();

/// Atom R(args); arity is not checked here (the parser validates it
/// against a vocabulary).
Formula Atom(RelationId relation, std::vector<Term> arguments);
/// Equality atom t1 = t2.
Formula Equals(Term left, Term right);

/// Connectives. And/Or flatten nested conjunctions/disjunctions and apply
/// unit simplification (empty And is True, empty Or is False).
Formula Not(Formula operand);
Formula And(std::vector<Formula> operands);
Formula And(Formula a, Formula b);
Formula Or(std::vector<Formula> operands);
Formula Or(Formula a, Formula b);
Formula Implies(Formula antecedent, Formula consequent);
Formula Iff(Formula a, Formula b);

/// Quantifiers.
Formula Forall(std::string variable, Formula body);
Formula Exists(std::string variable, Formula body);
/// Forall over several variables, outermost first.
Formula Forall(const std::vector<std::string>& variables, Formula body);
Formula Exists(const std::vector<std::string>& variables, Formula body);
/// Brace-list form: Forall({"x", "y"}, body).
Formula Forall(std::initializer_list<std::string> variables, Formula body);

/// Free variables of the formula, sorted.
std::set<std::string> FreeVariables(const Formula& formula);

/// True iff the formula is a sentence (no free variables).
bool IsSentence(const Formula& formula);

/// True iff the formula uses at most k distinct variable names, bound or
/// free (FO^k). The paper's FO² and FO³ fragments count *distinct names*,
/// with reuse allowed (Appendix B).
bool InFragmentFOk(const Formula& formula, std::size_t k);

/// True iff no equality atom occurs.
bool IsEqualityFree(const Formula& formula);

/// Structural equality (same shape, same names; not logical equivalence).
bool StructurallyEqual(const Formula& a, const Formula& b);

}  // namespace swfomc::logic

#endif  // SWFOMC_LOGIC_FORMULA_H_
