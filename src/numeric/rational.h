#ifndef SWFOMC_NUMERIC_RATIONAL_H_
#define SWFOMC_NUMERIC_RATIONAL_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "numeric/bigint.h"

namespace swfomc::numeric {

/// Exact rational number over BigInt.
///
/// Invariant: denominator > 0 and gcd(|numerator|, denominator) == 1;
/// zero is represented as 0/1. Negative values (the paper's Lemma 3.3 /
/// Example 1.2 use weight -1 and weights 1/(w-1) < 0) are fully supported.
class BigRational {
 public:
  /// Zero.
  BigRational() : numerator_(0), denominator_(1) {}
  /// From integer.
  BigRational(std::int64_t value)  // NOLINT(google-explicit-constructor)
      : numerator_(value), denominator_(1) {}
  /// From BigInt.
  BigRational(BigInt value)  // NOLINT(google-explicit-constructor)
      : numerator_(std::move(value)), denominator_(1) {}
  /// numerator/denominator; throws std::domain_error if denominator is 0.
  BigRational(BigInt numerator, BigInt denominator);
  /// Convenience for small fractions.
  static BigRational Fraction(std::int64_t numerator,
                              std::int64_t denominator);
  /// Parses "a", "-a", "a/b". Throws std::invalid_argument on bad input.
  static BigRational FromString(std::string_view text);

  const BigInt& numerator() const { return numerator_; }
  const BigInt& denominator() const { return denominator_; }

  bool IsZero() const { return numerator_.IsZero(); }
  bool IsOne() const { return numerator_.IsOne() && denominator_.IsOne(); }
  bool IsInteger() const { return denominator_.IsOne(); }
  int Sign() const { return numerator_.Sign(); }

  /// Heap bytes owned by this value (numerator + denominator limb
  /// buffers). Used by byte-accounted caches.
  std::size_t HeapBytes() const {
    return numerator_.HeapBytes() + denominator_.HeapBytes();
  }

  /// "a/b" or "a" when the denominator is 1.
  std::string ToString() const;
  /// Lossy; reporting only.
  double ToDouble() const;
  /// The integer value; throws std::domain_error when not an integer.
  const BigInt& ToInteger() const;

  BigRational operator-() const;
  /// Multiplicative inverse; throws std::domain_error on zero.
  BigRational Inverse() const;

  BigRational& operator+=(const BigRational& other);
  BigRational& operator-=(const BigRational& other);
  BigRational& operator*=(const BigRational& other);
  BigRational& operator/=(const BigRational& other);

  friend BigRational operator+(BigRational a, const BigRational& b) {
    return a += b;
  }
  friend BigRational operator-(BigRational a, const BigRational& b) {
    return a -= b;
  }
  friend BigRational operator*(BigRational a, const BigRational& b) {
    return a *= b;
  }
  friend BigRational operator/(BigRational a, const BigRational& b) {
    return a /= b;
  }

  /// base^exponent; negative exponents allowed for nonzero base.
  static BigRational Pow(const BigRational& base, std::int64_t exponent);

  friend bool operator==(const BigRational& a, const BigRational& b) {
    return a.numerator_ == b.numerator_ && a.denominator_ == b.denominator_;
  }
  friend bool operator!=(const BigRational& a, const BigRational& b) {
    return !(a == b);
  }
  friend bool operator<(const BigRational& a, const BigRational& b);
  friend bool operator>(const BigRational& a, const BigRational& b) {
    return b < a;
  }
  friend bool operator<=(const BigRational& a, const BigRational& b) {
    return !(b < a);
  }
  friend bool operator>=(const BigRational& a, const BigRational& b) {
    return !(a < b);
  }

  friend std::ostream& operator<<(std::ostream& os, const BigRational& value);

 private:
  void Reduce();
  /// Debug-build invariant check (compiled out under NDEBUG): denominator
  /// positive, numerator and denominator coprime, zero stored as 0/1.
  /// Every mutation path ends in either Reduce() or a fast path whose
  /// result is canonical by construction; this verifies both.
  void CheckCanonical() const;

  BigInt numerator_;
  BigInt denominator_;
};

/// A weight pair (w, w̄) over its common denominator
/// d = lcm(den w, den w̄) > 0: the integers w·d and w̄·d, signs kept.
/// Zero has denominator 1, so an integer pair gets d = 1. Counters that
/// pick exactly one weight of each pair per product term count in these
/// integers and divide once by the product of the d's, instead of
/// reducing a BigRational (a gcd) on every multiply.
struct ScaledWeightPair {
  BigInt positive;  // w·d
  BigInt negative;  // w̄·d
  BigInt scale;     // d
};
ScaledWeightPair ClearPairDenominators(const BigRational& positive,
                                       const BigRational& negative);

}  // namespace swfomc::numeric

#endif  // SWFOMC_NUMERIC_RATIONAL_H_
