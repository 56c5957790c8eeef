#include "wmc/weights.h"

#include "prop/compact_cnf.h"

namespace swfomc::wmc {

numeric::BigInt ClearDenominators(const WeightMap& weights, prop::VarId count,
                                  std::span<numeric::BigInt> out) {
  using numeric::BigInt;
  assert(weights.size() >= count && out.size() >= 2 * std::size_t{count});
  BigInt scale(1);
  for (prop::VarId v = 0; v < count; ++v) {
    const VariableWeights& pair = weights.Get(v);
    numeric::ScaledWeightPair scaled =
        numeric::ClearPairDenominators(pair.positive, pair.negative);
    out[prop::MakeLit(v, true)] = std::move(scaled.positive);
    out[prop::MakeLit(v, false)] = std::move(scaled.negative);
    scale *= scaled.scale;
  }
  return scale;
}

}  // namespace swfomc::wmc
