#include "fo2/fo2_normal_form.h"

#include <stdexcept>

#include "logic/transform.h"

namespace swfomc::fo2 {

namespace {

using logic::Formula;
using logic::FormulaKind;

// A Scott definition: D(params) <=> Q v. body, with body quantifier-free.
struct Definition {
  logic::RelationId relation;
  std::vector<std::string> params;  // 0 or 1 variable
  bool is_forall;                   // quantifier Q
  std::string bound_variable;       // v
  Formula body;
};

Formula FindInnermostQuantifier(const Formula& formula) {
  for (const Formula& child : formula->children()) {
    Formula found = FindInnermostQuantifier(child);
    if (found != nullptr) return found;
  }
  if (formula->kind() == FormulaKind::kForall ||
      formula->kind() == FormulaKind::kExists) {
    return formula;
  }
  return nullptr;
}

bool ContainsConstant(const Formula& formula) {
  for (const logic::Term& t : formula->arguments()) {
    if (t.IsConstant()) return true;
  }
  for (const Formula& child : formula->children()) {
    if (ContainsConstant(child)) return true;
  }
  return false;
}

// Renames the free variables of a quantifier-free matrix to {x, y}.
Formula CanonicalizeVariables(const Formula& matrix) {
  std::set<std::string> free_vars = logic::FreeVariables(matrix);
  if (free_vars.size() > 2) {
    throw std::logic_error("fo2: matrix with more than 2 free variables");
  }
  std::vector<std::string> ordered(free_vars.begin(), free_vars.end());
  Formula result = matrix;
  // Two-phase rename to avoid collisions with the canonical names.
  const std::string tmp0 = "fo2_tmp0", tmp1 = "fo2_tmp1";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    result = logic::RenameFreeVariable(result, ordered[i],
                                       i == 0 ? tmp0 : tmp1);
  }
  result = logic::RenameFreeVariable(result, tmp0, UniversalForm::x());
  result = logic::RenameFreeVariable(result, tmp1, UniversalForm::y());
  return result;
}

}  // namespace

std::optional<std::string_view> LiftedObstacle(
    const logic::Formula& sentence, const logic::Vocabulary& vocabulary) {
  if (!logic::IsSentence(sentence)) return "not a sentence (free variables)";
  if (!logic::InFragmentFOk(sentence, 2)) return "uses more than 2 variables";
  if (vocabulary.MaxArity() > 2) {
    return "vocabulary has a relation of arity > 2";
  }
  if (ContainsConstant(sentence)) return "contains constants";
  return std::nullopt;
}

const std::string& UniversalForm::x() {
  static const std::string name = "x";
  return name;
}

const std::string& UniversalForm::y() {
  static const std::string name = "y";
  return name;
}

UniversalForm ToUniversalForm(const logic::Formula& sentence,
                              const logic::Vocabulary& vocabulary) {
  if (std::optional<std::string_view> obstacle =
          LiftedObstacle(sentence, vocabulary)) {
    throw std::invalid_argument("ToUniversalForm: " + std::string(*obstacle));
  }

  UniversalForm result;
  result.vocabulary = vocabulary;

  Formula main = logic::ToNNF(sentence);

  // Phase 2: Scott-style extraction of every quantified subformula.
  std::vector<Definition> definitions;
  while (logic::ContainsQuantifier(main)) {
    Formula target = FindInnermostQuantifier(main);
    std::set<std::string> free_vars = logic::FreeVariables(target);
    if (free_vars.size() > 1) {
      throw std::logic_error(
          "fo2: innermost quantified subformula with 2 free variables "
          "cannot occur in FO2");
    }
    Definition def;
    def.params.assign(free_vars.begin(), free_vars.end());
    def.is_forall = target->kind() == FormulaKind::kForall;
    def.bound_variable = target->variable();
    def.body = target->child();
    def.relation = result.vocabulary.AddRelation(
        result.vocabulary.FreshName("Def"), def.params.size());
    definitions.push_back(def);

    std::vector<logic::Term> args;
    for (const std::string& p : def.params) {
      args.push_back(logic::Term::Var(p));
    }
    main = logic::ReplaceNode(main, target, logic::Atom(def.relation, args));
  }
  // `main` is now variable-free (a combination of 0-ary atoms).

  // Phase 2b: expand definitions into prenex ∀∀ / ∀∃ conjuncts, then
  // Phase 3: Skolemize the ∀∃ ones (Lemma 3.3, weights (1, -1)).
  std::vector<Formula> universal_matrices;  // quantifier-free conjuncts
  universal_matrices.push_back(main);

  for (const Definition& def : definitions) {
    std::vector<logic::Term> args;
    for (const std::string& p : def.params) {
      args.push_back(logic::Term::Var(p));
    }
    Formula d_atom = logic::Atom(def.relation, args);
    if (def.is_forall) {
      // D(u) => ∀v body  ~~>  ∀u∀v (¬D(u) ∨ body).
      universal_matrices.push_back(
          CanonicalizeVariables(logic::ToNNF(Or(Not(d_atom), def.body))));
      // ∀v body => D(u)  ~~>  ∀u∃v (¬body ∨ D(u))  ~~> Skolemize:
      // ∀u∀v (¬(¬body ∨ D(u)) ∨ A(u)) = ∀u∀v ((body ∧ ¬D(u)) ∨ A(u)).
      logic::RelationId skolem = result.vocabulary.AddRelation(
          result.vocabulary.FreshName("Sk"), def.params.size(),
          numeric::BigRational(1), numeric::BigRational(-1));
      Formula a_atom = logic::Atom(skolem, args);
      universal_matrices.push_back(CanonicalizeVariables(
          logic::ToNNF(Or(And(def.body, Not(d_atom)), a_atom))));
    } else {
      // ∃v body => D(u)  ~~>  ∀u∀v (¬body ∨ D(u)).
      universal_matrices.push_back(
          CanonicalizeVariables(logic::ToNNF(Or(Not(def.body), d_atom))));
      // D(u) => ∃v body  ~~>  ∀u∃v (¬D(u) ∨ body)  ~~> Skolemize:
      // ∀u∀v ((D(u) ∧ ¬body) ∨ A(u)).
      logic::RelationId skolem = result.vocabulary.AddRelation(
          result.vocabulary.FreshName("Sk"), def.params.size(),
          numeric::BigRational(1), numeric::BigRational(-1));
      Formula a_atom = logic::Atom(skolem, args);
      universal_matrices.push_back(CanonicalizeVariables(
          logic::ToNNF(Or(And(d_atom, Not(def.body)), a_atom))));
    }
  }

  // Phase 4: one matrix. ∀x (∧_i φ_i(x)) ∧ ∀x∀y (∧_j ψ_j(x,y)) merges into
  // ∀x∀y of the conjunction (domains are non-empty).
  result.matrix = And(std::move(universal_matrices));
  return result;
}

}  // namespace swfomc::fo2
