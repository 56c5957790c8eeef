#include "wmc/weights.h"

namespace swfomc::wmc {

ScaledWeights ClearDenominators(const VariableWeights& weights) {
  using numeric::BigInt;
  const BigInt& positive_den = weights.positive.denominator();
  const BigInt& negative_den = weights.negative.denominator();
  BigInt lcm =
      positive_den * (negative_den / BigInt::Gcd(positive_den, negative_den));
  return {weights.positive.numerator() * (lcm / positive_den),
          weights.negative.numerator() * (lcm / negative_den), lcm};
}

}  // namespace swfomc::wmc
