#ifndef SWFOMC_FO2_CELL_ALGORITHM_H_
#define SWFOMC_FO2_CELL_ALGORITHM_H_

#include <cstdint>

#include "fo2/fo2_normal_form.h"
#include "fo2/lifted_compiler.h"
#include "numeric/combinatorics.h"
#include "numeric/rational.h"

namespace swfomc::fo2 {

/// Instrumentation for the cell algorithm (reported by the benches): the
/// compile's cell counts plus the evaluation's composition terms.
struct CellStats : LiftedCompileStats {
  /// Innermost terms of the counting nodes' nested sums, after merging.
  std::uint64_t composition_terms = 0;
};

/// The Appendix C lifted algorithm on a prepared universal form:
///
///   WFOMC(∀x∀y ψ, n) = Σ_{n_1+..+n_C = n} (n choose n_1..n_C)
///       Π_l (u_l)^{n_l} · Π_l (r_ll)^{C(n_l,2)} · Π_{k<l} (r_kl)^{n_k n_l}
///
/// where cells (1-types) l range over truth assignments to {U(x)} ∪
/// {R(x,x)}, u_l is the weight of one element realizing cell l (unary +
/// diagonal tuples; zero unless ψ(x,x) holds), and r_kl is the weighted
/// sum over the off-diagonal atoms {R(a,b), R(b,a)} of assignments
/// satisfying ψ(a,b) ∧ ψ(b,a). Zero-ary predicates are Shannon-expanded
/// first (Appendix C). Computed by compiling the form (CompileLifted) and
/// evaluating the circuit once: the sum runs in the counting node
/// (nnf::LiftedCircuit), over merged cells. Runtime is polynomial in n
/// for a fixed sentence: O(n^{C-1}) terms with C a sentence-only
/// constant. `binomials` is an optional caller-owned table, so a caller
/// that counts many domain sizes builds each Pascal row once. Requires
/// n >= 1 and throws std::invalid_argument at n = 0: the normal form
/// preserves WFOMC only over non-empty domains, so LiftedWFOMC counts the
/// empty domain directly instead.
numeric::BigRational CellAlgorithmWFOMC(const UniversalForm& form,
                                        std::uint64_t domain_size,
                                        numeric::BinomialTable* binomials,
                                        CellStats* stats = nullptr);

/// End-to-end symmetric WFOMC for an FO² sentence: normal form + cell
/// algorithm. Throws std::invalid_argument for sentences outside the
/// supported fragment (see ToUniversalForm).
numeric::BigRational LiftedWFOMC(const logic::Formula& sentence,
                                 const logic::Vocabulary& vocabulary,
                                 std::uint64_t domain_size,
                                 CellStats* stats = nullptr);

/// FOMC(Φ, n) via the lifted algorithm (weights forced to (1,1)).
numeric::BigInt LiftedFOMC(const logic::Formula& sentence,
                           const logic::Vocabulary& vocabulary,
                           std::uint64_t domain_size);

/// Pr(Φ) over the symmetric tuple-independent distribution of the
/// vocabulary: LiftedWFOMC / Π_tuples (w + w̄).
numeric::BigRational LiftedProbability(const logic::Formula& sentence,
                                       const logic::Vocabulary& vocabulary,
                                       std::uint64_t domain_size);

}  // namespace swfomc::fo2

#endif  // SWFOMC_FO2_CELL_ALGORITHM_H_
