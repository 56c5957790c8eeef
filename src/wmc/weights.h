#ifndef SWFOMC_WMC_WEIGHTS_H_
#define SWFOMC_WMC_WEIGHTS_H_

#include <cassert>
#include <span>
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

  // Get/LiteralWeight sit on per-variable and brute-force inner loops;
  // callers run behind EnsureSize, so the bounds check is a debug assert
  // rather than an .at() throw.
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

/// Integer-scaled counting's weight table. For each variable v < count,
/// writes w(v)·d_v to out[MakeLit(v, true)] and w̄(v)·d_v to
/// out[MakeLit(v, false)], where d_v = lcm(den w, den w̄) > 0 (one
/// numeric::ClearPairDenominators call per variable), and returns
/// D = Π d_v. Scaled weights are integers carrying the signs of
/// w and w̄; integer pairs get d_v = 1. A sum whose every product term
/// picks exactly one literal weight of each v < count is scaled by
/// exactly D, so it runs in integer arithmetic (no gcd per operation)
/// and one exact division by D recovers it. Requires
/// weights.size() >= count and out.size() >= 2·count.
numeric::BigInt ClearDenominators(const WeightMap& weights, prop::VarId count,
                                  std::span<numeric::BigInt> out);

}  // namespace swfomc::wmc

#endif  // SWFOMC_WMC_WEIGHTS_H_
