#include "numeric/rational.h"

#include <ostream>
#include <stdexcept>
#include <utility>

namespace swfomc::numeric {

BigRational::BigRational(BigInt numerator, BigInt denominator)
    : numerator_(std::move(numerator)), denominator_(std::move(denominator)) {
  if (denominator_.IsZero()) {
    throw std::domain_error("BigRational: zero denominator");
  }
  Reduce();
}

BigRational BigRational::Fraction(std::int64_t numerator,
                                  std::int64_t denominator) {
  return BigRational(BigInt(numerator), BigInt(denominator));
}

BigRational BigRational::FromString(std::string_view text) {
  std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    return BigRational(BigInt::FromString(text));
  }
  return BigRational(BigInt::FromString(text.substr(0, slash)),
                     BigInt::FromString(text.substr(slash + 1)));
}

void BigRational::Reduce() {
  if (denominator_.IsNegative()) {
    numerator_ = -numerator_;
    denominator_ = -denominator_;
  }
  if (numerator_.IsZero()) {
    denominator_ = BigInt(1);
    return;
  }
  if (!denominator_.IsOne()) {
    BigInt g = BigInt::Gcd(numerator_, denominator_);
    if (!g.IsOne()) {
      numerator_ /= g;
      denominator_ /= g;
    }
  }
  CheckCanonical();
}

void BigRational::CheckCanonical() const {
#ifndef NDEBUG
  if (!denominator_.IsNegative() && !denominator_.IsZero() &&
      (numerator_.IsZero() ? denominator_.IsOne()
                           : BigInt::Gcd(numerator_, denominator_).IsOne())) {
    return;
  }
  throw std::logic_error("BigRational: non-canonical value " +
                         numerator_.ToString() + "/" +
                         denominator_.ToString());
#endif
}

std::string BigRational::ToString() const {
  if (denominator_.IsOne()) return numerator_.ToString();
  return numerator_.ToString() + "/" + denominator_.ToString();
}

double BigRational::ToDouble() const {
  // Scale to keep precision when both parts are huge.
  std::size_t num_bits = numerator_.BitLength();
  std::size_t den_bits = denominator_.BitLength();
  std::size_t excess =
      (num_bits > 900 || den_bits > 900)
          ? std::max(num_bits, den_bits) - 512
          : 0;
  BigInt n = numerator_.ShiftRight(excess);
  BigInt d = denominator_.ShiftRight(excess);
  if (d.IsZero()) return 0.0;
  return n.ToDouble() / d.ToDouble();
}

const BigInt& BigRational::ToInteger() const {
  if (!denominator_.IsOne()) {
    throw std::domain_error("BigRational: not an integer: " + ToString());
  }
  return numerator_;
}

BigRational BigRational::operator-() const {
  BigRational result = *this;
  result.numerator_ = -result.numerator_;
  return result;
}

BigRational BigRational::Inverse() const {
  if (IsZero()) throw std::domain_error("BigRational: inverse of zero");
  return BigRational(denominator_, numerator_);
}

BigRational& BigRational::operator+=(const BigRational& other) {
  // Fast paths whose results are canonical by construction: with both
  // operands reduced, gcd(n1 + k*d1, d1) == gcd(n1, d1) == 1, so adding
  // an integer multiple of the denominator to the numerator never
  // introduces a common factor.
  if (other.denominator_.IsOne()) {
    if (denominator_.IsOne()) {
      numerator_ += other.numerator_;
    } else {
      numerator_ += other.numerator_ * denominator_;
    }
    CheckCanonical();
    return *this;
  }
  if (denominator_.IsOne()) {
    numerator_ = numerator_ * other.denominator_ + other.numerator_;
    denominator_ = other.denominator_;
    CheckCanonical();
    return *this;
  }
  numerator_ = numerator_ * other.denominator_ + other.numerator_ * denominator_;
  denominator_ *= other.denominator_;
  Reduce();
  return *this;
}

BigRational& BigRational::operator-=(const BigRational& other) {
  if (other.denominator_.IsOne()) {
    if (denominator_.IsOne()) {
      numerator_ -= other.numerator_;
    } else {
      numerator_ -= other.numerator_ * denominator_;
    }
    CheckCanonical();
    return *this;
  }
  if (denominator_.IsOne()) {
    numerator_ = numerator_ * other.denominator_ - other.numerator_;
    denominator_ = other.denominator_;
    CheckCanonical();
    return *this;
  }
  numerator_ = numerator_ * other.denominator_ - other.numerator_ * denominator_;
  denominator_ *= other.denominator_;
  Reduce();
  return *this;
}

BigRational& BigRational::operator*=(const BigRational& other) {
  if (denominator_.IsOne() && other.denominator_.IsOne()) {
    // Integer times integer stays canonical without a gcd.
    numerator_ *= other.numerator_;
    CheckCanonical();
    return *this;
  }
  // Cross-cancel before multiplying (Knuth 4.5.1): with both operands
  // reduced, dividing out gcd(n1, d2) and gcd(n2, d1) leaves a product
  // already in lowest terms, and the gcds run on the small inputs rather
  // than the large product.
  BigInt other_num = other.numerator_;
  BigInt other_den = other.denominator_;
  if (!other_den.IsOne() && !numerator_.IsZero()) {
    BigInt g = BigInt::Gcd(numerator_, other_den);
    if (!g.IsOne()) {
      numerator_ /= g;
      other_den /= g;
    }
  }
  if (!denominator_.IsOne() && !other_num.IsZero()) {
    BigInt g = BigInt::Gcd(other_num, denominator_);
    if (!g.IsOne()) {
      other_num /= g;
      denominator_ /= g;
    }
  }
  numerator_ *= other_num;
  denominator_ *= other_den;
  if (numerator_.IsZero()) denominator_ = BigInt(1);
  CheckCanonical();
  return *this;
}

BigRational& BigRational::operator/=(const BigRational& other) {
  if (other.IsZero()) throw std::domain_error("BigRational: division by zero");
  BigInt other_num = other.numerator_;  // copy: `other` may alias *this
  numerator_ *= other.denominator_;
  denominator_ *= other_num;
  Reduce();
  return *this;
}

BigRational BigRational::Pow(const BigRational& base, std::int64_t exponent) {
  if (exponent < 0) {
    return Pow(base.Inverse(), -exponent);
  }
  return BigRational(BigInt::Pow(base.numerator_,
                                 static_cast<std::uint64_t>(exponent)),
                     BigInt::Pow(base.denominator_,
                                 static_cast<std::uint64_t>(exponent)));
}

bool operator<(const BigRational& a, const BigRational& b) {
  return a.numerator_ * b.denominator_ < b.numerator_ * a.denominator_;
}

std::ostream& operator<<(std::ostream& os, const BigRational& value) {
  return os << value.ToString();
}

ScaledWeightPair ClearPairDenominators(const BigRational& positive,
                                       const BigRational& negative) {
  const BigInt& positive_den = positive.denominator();
  const BigInt& negative_den = negative.denominator();
  BigInt lcm =
      positive_den * (negative_den / BigInt::Gcd(positive_den, negative_den));
  return ScaledWeightPair{
      .positive = positive.numerator() * (lcm / positive_den),
      .negative = negative.numerator() * (lcm / negative_den),
      .scale = std::move(lcm)};
}

}  // namespace swfomc::numeric
