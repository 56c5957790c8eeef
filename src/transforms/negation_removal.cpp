#include "transforms/negation_removal.h"

#include <stdexcept>

#include "logic/transform.h"

namespace swfomc::transforms {

namespace {

using logic::Formula;
using logic::FormulaKind;

// Finds a negation node in a quantifier-free NNF matrix (child is an atom
// or equality); nullptr when the matrix is positive.
Formula FindNegation(const Formula& formula) {
  if (formula->kind() == FormulaKind::kNot) return formula;
  for (const Formula& child : formula->children()) {
    Formula found = FindNegation(child);
    if (found != nullptr) return found;
  }
  return nullptr;
}

}  // namespace

RewriteResult RemoveNegations(const logic::Formula& sentence,
                              const logic::Vocabulary& vocabulary) {
  // Normalize to prenex first: Skolemize emits a *conjunction* of ∀*
  // sentences (the rewritten formula plus its guards), and ∀ distributes
  // over ∧, so the conjunction prenexes into a single ∀* sentence.
  std::size_t counter = 0;
  logic::PrenexForm prenex = logic::ToPrenex(sentence, &counter);
  std::vector<std::string> prefix;
  for (const logic::PrenexForm::QuantifiedVar& q : prenex.prefix) {
    if (!q.is_forall) {
      throw std::invalid_argument(
          "RemoveNegations: input must be a prenex ∀* sentence "
          "(apply Skolemize first)");
    }
    prefix.push_back(q.variable);
  }
  Formula matrix = logic::ToNNF(prenex.matrix);

  RewriteResult result;
  result.vocabulary = vocabulary;

  std::vector<Formula> delta_conjuncts;
  for (;;) {
    Formula negation = FindNegation(matrix);
    if (negation == nullptr) break;
    Formula psi = negation->child();  // positive atom or equality

    std::set<std::string> free_vars = logic::FreeVariables(psi);
    std::vector<logic::Term> args;
    args.reserve(free_vars.size());
    for (const std::string& v : free_vars) {
      args.push_back(logic::Term::Var(v));
    }
    logic::RelationId a_id = result.vocabulary.AddRelation(
        result.vocabulary.FreshName("NegA"), args.size(),
        numeric::BigRational(1), numeric::BigRational(1));
    logic::RelationId b_id = result.vocabulary.AddRelation(
        result.vocabulary.FreshName("NegB"), args.size(),
        numeric::BigRational(1), numeric::BigRational(-1));
    Formula a_atom = logic::Atom(a_id, args);
    Formula b_atom = logic::Atom(b_id, args);

    matrix = logic::ReplaceNode(matrix, negation, a_atom);
    // Δ-matrix from Eq. (7): (ψ ∨ A) ∧ (A ∨ B) ∧ (ψ ∨ B). Its free
    // variables are among the existing prefix, so all Δs share the prefix.
    delta_conjuncts.push_back(logic::And(std::vector<Formula>{
        Or(psi, a_atom), Or(a_atom, b_atom), Or(psi, b_atom)}));
  }

  std::vector<Formula> all{matrix};
  for (Formula& d : delta_conjuncts) all.push_back(std::move(d));
  result.sentence = Forall(prefix, And(std::move(all)));
  return result;
}

}  // namespace swfomc::transforms
