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
    const BigInt& positive_den = pair.positive.denominator();
    const BigInt& negative_den = pair.negative.denominator();
    BigInt lcm = positive_den *
                 (negative_den / BigInt::Gcd(positive_den, negative_den));
    out[prop::MakeLit(v, true)] =
        pair.positive.numerator() * (lcm / positive_den);
    out[prop::MakeLit(v, false)] =
        pair.negative.numerator() * (lcm / negative_den);
    scale *= lcm;
  }
  return scale;
}

}  // namespace swfomc::wmc
