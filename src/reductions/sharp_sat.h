#ifndef SWFOMC_REDUCTIONS_SHARP_SAT_H_
#define SWFOMC_REDUCTIONS_SHARP_SAT_H_

#include "logic/formula.h"
#include "logic/vocabulary.h"
#include "numeric/bigint.h"
#include "prop/prop_formula.h"

namespace swfomc::reductions {

/// Theorem 4.1 (1), hardness direction: reduction from #SAT to FOMC for
/// FO². Given a Boolean formula F over variables X_1..X_n (n >= 2), builds
/// the FO² sentence ϕ_F over σ = (A/1, B/1, C/1, R/2, S/2) enforcing the
/// Figure 2 gadget:
///   * unique, pairwise-distinct A-, B- and C-elements;
///   * an R-chain of exactly n elements from the A-element to the
///     B-element, with no A→B R-walk of any other length m ∈ [2n]∖{n}
///     (which pins R to exactly the chain);
///   * R avoids the C-element; S-edges go from the C-element to chain
///     elements only;
///   * F itself, with X_i replaced by γ_i = ∃x (α_i(x) ∧ ∃y S(y,x)),
///     where α_i(x) says "x is the i-th chain element".
/// Over a domain of size n+1:  FOMC(ϕ_F, n+1) = (n+1)! · #F.
///
/// (The S-edges are in one-to-one correspondence with the X_i; we pin S
/// targets to chain elements so no stray S-bit doubles the count.)
struct SharpSatReduction {
  logic::Vocabulary vocabulary;
  logic::Formula sentence;
  std::uint64_t domain_size;  // n + 1
};

SharpSatReduction EncodeSharpSat(const prop::PropFormula& boolean_formula,
                                 std::uint32_t num_variables);

/// #F computed through the reduction: FOMC(ϕ_F, n+1) / (n+1)!. Uses the
/// grounded engine, i.e. this is the "FOMC oracle solves #SAT" direction.
numeric::BigInt SharpSatViaFOMC(const prop::PropFormula& boolean_formula,
                                std::uint32_t num_variables);

}  // namespace swfomc::reductions

#endif  // SWFOMC_REDUCTIONS_SHARP_SAT_H_
