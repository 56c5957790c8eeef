#ifndef SWFOMC_GROUNDING_GROUNDED_WFOMC_H_
#define SWFOMC_GROUNDING_GROUNDED_WFOMC_H_

#include <functional>

#include "grounding/tuple_index.h"
#include "logic/formula.h"
#include "numeric/rational.h"
#include "prop/cnf.h"
#include "wmc/dpll_counter.h"

namespace swfomc::grounding {

/// The symmetric weight table of a grounded instance: ground tuple
/// variables carry their relation's (w, w̄) from the vocabulary, the
/// remaining (Tseitin auxiliary) variables up to `total_vars` carry
/// (1, 1). GroundInstance weights every grounded instance with it.
wmc::WeightMap SymmetricGroundWeights(const TupleIndex& index,
                                      std::uint32_t total_vars);

/// The grounded instance of (Φ, n): the ground-tuple index, the Tseitin
/// CNF of the lineage F_{Φ,n} (tuple variables [0, |Tup(n)|), Tseitin
/// auxiliaries above), and the symmetric weights over every CNF variable
/// (SymmetricGroundWeights). `index` points into the vocabulary, which
/// must outlive the instance. Callers move `cnf` and `weights` into the
/// DPLL counter.
struct GroundedInstance {
  TupleIndex index;
  prop::CnfFormula cnf;
  wmc::WeightMap weights;
};

/// Builds the grounded instance: the one copy of lineage → Tseitin →
/// symmetric weights behind every grounded count and compile.
GroundedInstance GroundInstance(const logic::Formula& sentence,
                                const logic::Vocabulary& vocabulary,
                                std::uint64_t domain_size);

/// Symmetric WFOMC by grounding, resource-governed: runs the DPLL counter
/// on GroundInstance(Φ, n), so every ground tuple of relation R_i weighs
/// (w_i, w̄_i). A budget, cancel token, or fault point in `options` can
/// stop the search early, in which case the result carries certified
/// anytime bounds (or kAborted). Works for every FO sentence; worst-case
/// exponential in n (this is the baseline the lifted algorithms are
/// measured against).
wmc::DpllCounter::CountResult GroundedWFOMCBounded(
    const logic::Formula& sentence, const logic::Vocabulary& vocabulary,
    std::uint64_t domain_size, wmc::DpllCounter::Options options = {},
    wmc::DpllCounter::Stats* stats = nullptr);

/// GroundedWFOMCBounded that requires an exact count: throws
/// std::runtime_error when the search stopped early (use
/// GroundedWFOMCBounded to consume anytime results).
numeric::BigRational GroundedWFOMC(const logic::Formula& sentence,
                                   const logic::Vocabulary& vocabulary,
                                   std::uint64_t domain_size,
                                   wmc::DpllCounter::Options options = {},
                                   wmc::DpllCounter::Stats* stats = nullptr);

/// Unweighted model count FOMC(Φ, n): GroundedWFOMC with weights (1, 1);
/// the result is always a non-negative integer.
numeric::BigInt GroundedFOMC(const logic::Formula& sentence,
                             const logic::Vocabulary& vocabulary,
                             std::uint64_t domain_size);

/// *Asymmetric* WFOMC: per-ground-tuple weights supplied by a callback
/// (variable id -> weights). This is the "Asymmetric WFOMC" row of
/// Table 1, which is #P-hard in general.
numeric::BigRational GroundedWFOMCAsymmetric(
    const logic::Formula& sentence, const logic::Vocabulary& vocabulary,
    std::uint64_t domain_size,
    const std::function<wmc::VariableWeights(const TupleIndex&, prop::VarId)>&
        tuple_weights);

/// Reference implementation by exhaustive world enumeration (2^|Tup(n)|
/// structures, evaluated with the FO model checker). Requires
/// |Tup(n)| <= 26. Ground truth for everything else.
numeric::BigRational ExhaustiveWFOMC(const logic::Formula& sentence,
                                     const logic::Vocabulary& vocabulary,
                                     std::uint64_t domain_size);

/// Exhaustive unweighted count.
numeric::BigInt ExhaustiveFOMC(const logic::Formula& sentence,
                               const logic::Vocabulary& vocabulary,
                               std::uint64_t domain_size);

/// Pr(Φ) over the symmetric tuple-independent distribution induced by the
/// vocabulary weights: WFOMC(Φ,n,w,w̄) / WFOMC(true,n,w,w̄). Throws
/// std::domain_error when the normalizer is zero.
numeric::BigRational GroundedProbability(const logic::Formula& sentence,
                                         const logic::Vocabulary& vocabulary,
                                         std::uint64_t domain_size);

}  // namespace swfomc::grounding

#endif  // SWFOMC_GROUNDING_GROUNDED_WFOMC_H_
