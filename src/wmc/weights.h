#ifndef SWFOMC_WMC_WEIGHTS_H_
#define SWFOMC_WMC_WEIGHTS_H_

#include <cassert>
#include <vector>

#include "numeric/rational.h"
#include "prop/prop_formula.h"

namespace swfomc::wmc {

/// Per-variable weight pair (w, w̄) as in Section 2, Eq. (2)-(3):
/// WMC(F, w, w̄) = Σ_{θ |= F} Π_{θ(X)=1} w(X) · Π_{θ(X)=0} w̄(X).
/// Weights may be negative or zero.
struct VariableWeights {
  numeric::BigRational positive{1};  // w(X)
  numeric::BigRational negative{1};  // w̄(X)

  /// w + w̄: the total weight of an unconstrained variable.
  numeric::BigRational Total() const { return positive + negative; }
};

/// A weight pair with its denominators cleared: `positive` = w·d and
/// `negative` = w̄·d, where d = lcm(den w, den w̄) > 0 is `scale`. Both
/// scaled weights are integers carrying the signs of w and w̄.
struct ScaledWeights {
  numeric::BigInt positive;
  numeric::BigInt negative;
  numeric::BigInt scale;
};

/// The per-variable step of integer-scaled counting. A sum whose every
/// product term picks exactly one literal weight of each variable v is
/// scaled by exactly Π d_v when each pair is replaced by its cleared
/// form, so the sum runs in integer arithmetic (no gcd per operation)
/// and one exact division by Π d_v recovers it. Integer pairs get d = 1.
ScaledWeights ClearDenominators(const VariableWeights& weights);

/// Weight table indexed by VarId.
class WeightMap {
 public:
  WeightMap() = default;
  /// All `count` variables weighted (1, 1) — plain model counting.
  explicit WeightMap(std::size_t count) : weights_(count) {}

  std::size_t size() const { return weights_.size(); }
  /// Grows the table with (1, 1) entries if needed.
  void EnsureSize(std::size_t count) {
    if (weights_.size() < count) weights_.resize(count);
  }

  // Get/LiteralWeight sit on the counters' innermost loops; callers run
  // behind EnsureSize, so the bounds check is a debug assert rather than
  // an .at() throw.
  const VariableWeights& Get(prop::VarId variable) const {
    assert(variable < weights_.size());
    return weights_[variable];
  }
  void Set(prop::VarId variable, numeric::BigRational positive,
           numeric::BigRational negative) {
    weights_.at(variable) =
        VariableWeights{std::move(positive), std::move(negative)};
  }

  /// Weight of a single literal.
  const numeric::BigRational& LiteralWeight(prop::VarId variable,
                                            bool positive) const {
    assert(variable < weights_.size());
    const VariableWeights& w = weights_[variable];
    return positive ? w.positive : w.negative;
  }

 private:
  std::vector<VariableWeights> weights_;
};

}  // namespace swfomc::wmc

#endif  // SWFOMC_WMC_WEIGHTS_H_
