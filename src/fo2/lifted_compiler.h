#ifndef SWFOMC_FO2_LIFTED_COMPILER_H_
#define SWFOMC_FO2_LIFTED_COMPILER_H_

#include <cstdint>

#include "fo2/fo2_normal_form.h"
#include "logic/formula.h"
#include "logic/vocabulary.h"
#include "nnf/lifted_circuit.h"

namespace swfomc::fo2 {

/// Instrumentation for the lifted compiler (reported by `swfomc compile`).
struct LiftedCompileStats {
  std::size_t unary_predicates = 0;
  std::size_t binary_predicates = 0;
  std::size_t zeroary_predicates = 0;
  std::size_t cells = 0;        // 1-types enumerated, summed over
                                // zero-ary Shannon branches
  std::size_t valid_cells = 0;  // cells whose diagonal satisfies ψ(x,x)
};

/// True when CompileLifted accepts the sentence (no LiftedObstacle).
bool CanCompileLifted(const logic::Formula& sentence,
                      const logic::Vocabulary& vocabulary);

/// Compiles an FO² sentence into a domain-parametric lifted circuit:
/// Appendix C's cell algorithm as structure. Zero-ary predicates are
/// Shannon-expanded, and each branch becomes one counting node over the
/// valid 1-types, whose children are the cell weights and the pairwise
/// off-diagonal sums. The satisfaction checks driving the recursion are
/// weight-independent, and both Shannon branches are always emitted even
/// when a compile-time weight is zero, so the circuit is exact for
/// *every* (n >= 1, weight vector) pair, zero and negative weights
/// included. Every lifted FO² count (CellAlgorithmWFOMC, Engine::WFOMC,
/// Engine::WFOMCSweep, Engine::Compile) evaluates such a circuit.
///
/// The circuit's relation table is the extended (Scott/Skolem) vocabulary
/// in id order; the original vocabulary's relations are a prefix of it,
/// so per-relation reweights apply by original id.
///
/// Throws std::invalid_argument for sentences outside the fragment (see
/// ToUniversalForm) and when the normal form exceeds 20 unary + binary
/// predicates.
nnf::LiftedCircuit CompileLifted(const logic::Formula& sentence,
                                 const logic::Vocabulary& vocabulary,
                                 LiftedCompileStats* stats = nullptr);

/// The same compile from a prepared universal form.
nnf::LiftedCircuit CompileLifted(const UniversalForm& form,
                                 LiftedCompileStats* stats = nullptr);

}  // namespace swfomc::fo2

#endif  // SWFOMC_FO2_LIFTED_COMPILER_H_
