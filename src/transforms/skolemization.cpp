#include "transforms/skolemization.h"

#include <stdexcept>

#include "logic/transform.h"

namespace swfomc::transforms {

namespace {

using logic::Formula;
using logic::FormulaKind;

// Finds an innermost existential subformula (one containing no other
// existential); returns nullptr when none exists. The input is in NNF, so
// every existential occurs positively.
Formula FindInnermostExists(const Formula& formula) {
  for (const Formula& child : formula->children()) {
    Formula found = FindInnermostExists(child);
    if (found != nullptr) return found;
  }
  if (formula->kind() == FormulaKind::kExists) return formula;
  return nullptr;
}

}  // namespace

RewriteResult Skolemize(const logic::Formula& sentence,
                        const logic::Vocabulary& vocabulary) {
  RewriteResult result;
  result.vocabulary = vocabulary;
  Formula current = logic::ToNNF(sentence);

  // Each round eliminates one innermost existential occurrence ∃v ψ(x⃗,v)
  // (positive, since the formula is in NNF) by the cancellation gadget:
  //   * the occurrence is replaced in place by Z(x⃗), w(Z) = w̄(Z) = 1;
  //   * guards ∀x⃗∀v (Z(x⃗) ∨ ¬ψ), ∀x⃗∀v (Sk(x⃗) ∨ ¬ψ) and
  //     ∀x⃗ (Z(x⃗) ∨ Sk(x⃗)) are conjoined, with w(Sk) = 1, w̄(Sk) = -1.
  // For a tuple a⃗ where ∃v ψ(a⃗,v) holds, Z(a⃗) and Sk(a⃗) are forced
  // true (factor +1). Where it fails, the allowed assignments are
  // (Z,Sk) ∈ {(1,1), (1,0), (0,1)} with weights +1, -1, +1: the two
  // Z-true worlds cancel and the truthful Z-false world survives — the
  // same pairing the paper uses in Lemma 3.4, needed here because the
  // replaced occurrence may sit under other connectives (the bare
  // Lemma 3.3 statement covers the prenex ∀*∃ case, where the original
  // constraint is dropped; in-place replacement requires the full
  // gadget).
  //
  // Rounds terminate because the guard bodies ¬ψ dualize ψ's quantifiers
  // at strictly smaller depth than the eliminated occurrence. The cap is
  // a safety net against a logic bug, not an expected exit.
  for (std::size_t round = 0; round < 10000; ++round) {
    Formula target = FindInnermostExists(current);
    if (target == nullptr) break;

    std::set<std::string> free_vars = logic::FreeVariables(target);
    std::vector<std::string> params(free_vars.begin(), free_vars.end());
    std::vector<logic::Term> args;
    args.reserve(params.size());
    for (const std::string& p : params) {
      args.push_back(logic::Term::Var(p));
    }
    logic::RelationId z_id = result.vocabulary.AddRelation(
        result.vocabulary.FreshName("Z"), params.size(),
        numeric::BigRational(1), numeric::BigRational(1));
    logic::RelationId sk_id = result.vocabulary.AddRelation(
        result.vocabulary.FreshName("Sk"), params.size(),
        numeric::BigRational(1), numeric::BigRational(-1));
    Formula z_atom = logic::Atom(z_id, args);
    Formula sk_atom = logic::Atom(sk_id, args);
    Formula body = target->child();

    // Pointer-shared occurrences of the target share one guard sentence,
    // so one Z atom soundly replaces them all.
    current = logic::ReplaceNode(current, target, z_atom);
    // ∀ params ∀ v (Z ∨ ¬ψ) ∧ (Sk ∨ ¬ψ), then ∀ params (Z ∨ Sk). The
    // re-normalized ¬ψ may surface fresh existentials; later rounds
    // eliminate them.
    Formula negated_body = logic::ToNNF(Not(body));
    std::vector<std::string> quantified = params;
    quantified.push_back(target->variable());
    current = And(current,
                  Forall(quantified,
                         And(Or(z_atom, negated_body),
                             Or(sk_atom, negated_body))));
    current = And(current, params.empty()
                               ? Or(z_atom, sk_atom)
                               : Forall(params, Or(z_atom, sk_atom)));
  }

  if (FindInnermostExists(current) != nullptr) {
    throw std::runtime_error("Skolemize: did not converge");
  }
  result.sentence = std::move(current);
  return result;
}

}  // namespace swfomc::transforms
