#ifndef SWFOMC_FO2_MATRIX_EVAL_H_
#define SWFOMC_FO2_MATRIX_EVAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "logic/formula.h"
#include "logic/vocabulary.h"

namespace swfomc::fo2 {

/// The lifted compiler's view of a quantifier-free FO² matrix: the pair
/// environment the matrix is evaluated under, and the boolean evaluator
/// itself. The satisfaction checks are weight-independent, which is what
/// makes one compiled circuit exact for every weight vector.
///
/// A 1-type is a code over the m unary and b binary relations: bit i is
/// U_i(x), bit m + i is R_i(x,x). An off-diagonal code of a pair (a, b)
/// holds R_i(a,b) at bit 2i and R_i(b,a) at bit 2i + 1.

/// Evaluation environment for the quantifier-free matrix over a pair
/// (a,b) bound to (x,y).
struct PairEnv {
  std::uint32_t cell_x;  // 1-type of the element bound to variable x
  std::uint32_t cell_y;
  std::uint64_t pair;  // off-diagonal code of (x, y); unused when
                       // same_element
  bool same_element;   // true when evaluating ψ(c,c)
};

class MatrixEvaluator {
 public:
  MatrixEvaluator(const logic::Vocabulary& vocabulary,
                  const std::vector<logic::RelationId>& unary_relations,
                  const std::vector<logic::RelationId>& binary_relations);

  bool Eval(const logic::Formula& formula, const PairEnv& env) const;

 private:
  std::size_t unary_count_;
  std::vector<std::size_t> slot_;  // by relation: its unary or binary index
};

/// Replaces a 0-ary atom by a constant truth value (Shannon expansion).
logic::Formula SubstituteZeroAry(const logic::Formula& formula,
                                 logic::RelationId relation, bool value);

}  // namespace swfomc::fo2

#endif  // SWFOMC_FO2_MATRIX_EVAL_H_
