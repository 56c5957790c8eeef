#ifndef SWFOMC_FO2_FO2_NORMAL_FORM_H_
#define SWFOMC_FO2_FO2_NORMAL_FORM_H_

#include <optional>
#include <string>
#include <string_view>

#include "logic/formula.h"
#include "logic/vocabulary.h"

namespace swfomc::fo2 {

/// The first check of the lifted fragment that the sentence fails, in
/// order: a sentence (no free variables), in FO², over relations of arity
/// <= 2, without domain constants. Returns the reason Engine reports when
/// it routes away from the cell algorithm, or nullopt for a liftable
/// sentence. Weight-independent: liftability is a property of the
/// sentence and the vocabulary's arities alone. This is the one FO² test:
/// the router asks it, and ToUniversalForm refuses what it names.
std::optional<std::string_view> LiftedObstacle(
    const logic::Formula& sentence, const logic::Vocabulary& vocabulary);

/// The universal two-variable form every FO² sentence is reduced to before
/// the cell algorithm runs: WFOMC(Φ, n, w, w̄) = WFOMC(∀x∀y ψ, n, w', w̄')
/// where ψ is quantifier-free over an extended vocabulary.
struct UniversalForm {
  /// Quantifier-free matrix; free variables ⊆ {x(), y()}.
  logic::Formula matrix;
  /// Extended weighted vocabulary (Scott definition predicates with
  /// weights (1,1); Skolem predicates with weights (1,-1)).
  logic::Vocabulary vocabulary;

  static const std::string& x();
  static const std::string& y();
};

/// Reduces an FO² sentence to UniversalForm. The pipeline is the one
/// Appendix C sketches:
///   1. implication elimination + NNF;
///   2. Scott-style extraction: every innermost quantified subformula
///      Qv ψ(u) is replaced by a fresh definition atom D(u) (arity ≤ 1,
///      weights (1,1)) with defining sentences ∀u (D(u) ⇔ Qv ψ);
///      definitions expand into prenex conjuncts of shape ∀∀ and ∀∃;
///   3. Lemma 3.3 Skolemization of each ∀∃ conjunct (fresh predicate with
///      weights (1,-1));
///   4. conjunction of all ∀∀ matrices with variables renamed to {x, y}.
///
/// Throws std::invalid_argument("ToUniversalForm: " + obstacle) when
/// LiftedObstacle names one. Equality atoms are allowed and survive into
/// the matrix (the cell algorithm evaluates them natively, so Lemma 3.5 is
/// not needed on this path).
UniversalForm ToUniversalForm(const logic::Formula& sentence,
                              const logic::Vocabulary& vocabulary);

}  // namespace swfomc::fo2

#endif  // SWFOMC_FO2_FO2_NORMAL_FORM_H_
