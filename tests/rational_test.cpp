#include "numeric/rational.h"

#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

namespace swfomc::numeric {
namespace {

TEST(BigRationalTest, DefaultIsZero) {
  BigRational z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.ToString(), "0");
  EXPECT_TRUE(z.IsInteger());
}

TEST(BigRationalTest, ReductionToLowestTerms) {
  EXPECT_EQ(BigRational::Fraction(6, 4).ToString(), "3/2");
  EXPECT_EQ(BigRational::Fraction(-6, 4).ToString(), "-3/2");
  EXPECT_EQ(BigRational::Fraction(6, -4).ToString(), "-3/2");
  EXPECT_EQ(BigRational::Fraction(-6, -4).ToString(), "3/2");
  EXPECT_EQ(BigRational::Fraction(0, 17).ToString(), "0");
  EXPECT_EQ(BigRational::Fraction(10, 5).ToString(), "2");
}

TEST(BigRationalTest, DenominatorAlwaysPositive) {
  BigRational r = BigRational::Fraction(3, -7);
  EXPECT_EQ(r.denominator(), BigInt(7));
  EXPECT_EQ(r.numerator(), BigInt(-3));
}

TEST(BigRationalTest, ZeroDenominatorThrows) {
  EXPECT_THROW(BigRational::Fraction(1, 0), std::domain_error);
}

TEST(BigRationalTest, FromString) {
  EXPECT_EQ(BigRational::FromString("22/7").ToString(), "22/7");
  EXPECT_EQ(BigRational::FromString("-1/2").ToString(), "-1/2");
  EXPECT_EQ(BigRational::FromString("42").ToString(), "42");
  EXPECT_EQ(BigRational::FromString("4/8").ToString(), "1/2");
}

TEST(BigRationalTest, Arithmetic) {
  BigRational half = BigRational::Fraction(1, 2);
  BigRational third = BigRational::Fraction(1, 3);
  EXPECT_EQ((half + third).ToString(), "5/6");
  EXPECT_EQ((half - third).ToString(), "1/6");
  EXPECT_EQ((half * third).ToString(), "1/6");
  EXPECT_EQ((half / third).ToString(), "3/2");
  EXPECT_EQ((-half).ToString(), "-1/2");
}

TEST(BigRationalTest, NegativeWeightArithmetic) {
  // The Skolemization weight -1 and MLN weights 1/(w-1) < 0 must combine
  // exactly (cancellations drive Lemma 3.3).
  BigRational minus_one(-1);
  BigRational one(1);
  EXPECT_TRUE((one + minus_one).IsZero());
  EXPECT_EQ((minus_one * minus_one), one);
  BigRational w = BigRational::Fraction(1, 2);  // MLN weight 3 -> 1/(3-1)
  EXPECT_EQ((w / (one + w)).ToString(), "1/3");
}

TEST(BigRationalTest, DivisionByZeroThrows) {
  BigRational x(3);
  EXPECT_THROW(x /= BigRational(0), std::domain_error);
  EXPECT_THROW(BigRational(0).Inverse(), std::domain_error);
}

TEST(BigRationalTest, PowPositiveAndNegativeExponents) {
  BigRational two_thirds = BigRational::Fraction(2, 3);
  EXPECT_EQ(BigRational::Pow(two_thirds, 3).ToString(), "8/27");
  EXPECT_EQ(BigRational::Pow(two_thirds, 0).ToString(), "1");
  EXPECT_EQ(BigRational::Pow(two_thirds, -2).ToString(), "9/4");
  EXPECT_EQ(BigRational::Pow(BigRational(-2), 3).ToString(), "-8");
}

TEST(BigRationalTest, Comparisons) {
  BigRational a = BigRational::Fraction(1, 3);
  BigRational b = BigRational::Fraction(1, 2);
  BigRational c = BigRational::Fraction(-5, 2);
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);
  EXPECT_GT(b, c);
  EXPECT_EQ(a, BigRational::Fraction(2, 6));
  EXPECT_LE(a, a);
  EXPECT_GE(b, a);
}

TEST(BigRationalTest, ToIntegerOnlyWhenIntegral) {
  EXPECT_EQ(BigRational::Fraction(8, 2).ToInteger(), BigInt(4));
  EXPECT_THROW(BigRational::Fraction(1, 2).ToInteger(), std::domain_error);
}

TEST(BigRationalTest, ToDouble) {
  EXPECT_DOUBLE_EQ(BigRational::Fraction(1, 2).ToDouble(), 0.5);
  EXPECT_DOUBLE_EQ(BigRational::Fraction(-3, 4).ToDouble(), -0.75);
  // Huge numerator and denominator of similar size still resolve.
  BigRational huge(BigInt::Pow(BigInt(3), 800), BigInt::Pow(BigInt(3), 799));
  EXPECT_NEAR(huge.ToDouble(), 3.0, 1e-9);
}

TEST(BigRationalTest, RandomizedFieldAxioms) {
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::int64_t> dist(-50, 50);
  for (int i = 0; i < 500; ++i) {
    std::int64_t an = dist(rng), ad = dist(rng);
    std::int64_t bn = dist(rng), bd = dist(rng);
    std::int64_t cn = dist(rng), cd = dist(rng);
    if (ad == 0 || bd == 0 || cd == 0) continue;
    BigRational a = BigRational::Fraction(an, ad);
    BigRational b = BigRational::Fraction(bn, bd);
    BigRational c = BigRational::Fraction(cn, cd);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, BigRational(0));
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), BigRational(1));
    }
  }
}

TEST(BigRationalTest, StreamOutput) {
  std::ostringstream os;
  os << BigRational::Fraction(-7, 3);
  EXPECT_EQ(os.str(), "-7/3");
}

TEST(BigRationalTest, Sign) {
  EXPECT_EQ(BigRational::Fraction(-1, 2).Sign(), -1);
  EXPECT_EQ(BigRational(0).Sign(), 0);
  EXPECT_EQ(BigRational(3).Sign(), 1);
}

// Every value observable through the public surface must be canonical:
// positive denominator, gcd(num, den) == 1, zero spelled 0/1. The fast
// paths in +=, -=, *= and /= skip the gcd reduction on number-theoretic
// grounds, so this is the invariant they must be measured against.
void ExpectCanonical(const BigRational& value) {
  EXPECT_GT(value.denominator().Sign(), 0) << value;
  EXPECT_EQ(BigInt::Gcd(value.numerator(), value.denominator()), BigInt(1))
      << value;
  if (value.numerator().IsZero()) {
    EXPECT_EQ(value.denominator(), BigInt(1)) << value;
  }
}

TEST(BigRationalTest, EveryMutationPathStaysCanonical) {
  // Pairs chosen to hit each fast path: integer ± integer, integer ±
  // fraction, fraction ± integer, fraction ± fraction with shared
  // factors, multiply with cross-cancellation, and zero products.
  const BigRational values[] = {
      BigRational(0),        BigRational(1),
      BigRational(-3),       BigRational(42),
      BigRational::Fraction(3, 2),   BigRational::Fraction(-3, 2),
      BigRational::Fraction(7, 6),   BigRational::Fraction(-5, 6),
      BigRational::Fraction(1, 42),  BigRational::Fraction(6, 35),
  };
  for (const BigRational& a : values) {
    for (const BigRational& b : values) {
      BigRational sum = a;
      sum += b;
      ExpectCanonical(sum);
      BigRational difference = a;
      difference -= b;
      ExpectCanonical(difference);
      BigRational product = a;
      product *= b;
      ExpectCanonical(product);
      if (!b.IsZero()) {
        BigRational quotient = a;
        quotient /= b;
        ExpectCanonical(quotient);
        // quotient * b must reconstruct a exactly (field inverse).
        EXPECT_EQ(quotient * b, a);
      }
    }
  }
}

TEST(BigRationalTest, MultiplyByZeroNormalizesDenominator) {
  // (3/2) * 0 must be 0/1, not 0/2 — the cross-cancel multiply needs an
  // explicit zero fixup.
  BigRational r = BigRational::Fraction(3, 2);
  r *= BigRational(0);
  EXPECT_TRUE(r.IsZero());
  EXPECT_EQ(r.denominator(), BigInt(1));
  ExpectCanonical(r);
}

TEST(BigRationalTest, DivisionSelfAliasing) {
  // x /= x must yield exactly 1 (a copy of other's numerator is needed
  // because `other` may alias *this).
  BigRational r = BigRational::Fraction(-21, 10);
  r /= r;
  EXPECT_EQ(r, BigRational(1));
  ExpectCanonical(r);
  BigRational s = BigRational::Fraction(5, 3);
  s *= s;
  EXPECT_EQ(s, BigRational::Fraction(25, 9));
  s -= s;
  EXPECT_TRUE(s.IsZero());
  ExpectCanonical(s);
}

TEST(BigRationalTest, LargeReductionRoundTripsCanonically) {
  // Consecutive Fibonacci numbers are coprime, so x·g / y·g reduces to
  // exactly x/y for any planted g; at thousands of bits each reduction
  // runs the multi-limb gcd.
  std::vector<BigInt> fibonacci = {BigInt(0), BigInt(1)};
  while (fibonacci.size() < 3000) {
    fibonacci.push_back(fibonacci[fibonacci.size() - 1] +
                        fibonacci[fibonacci.size() - 2]);
  }
  const BigInt g = BigInt::Pow(BigInt(21), 400) * BigInt(1000003);
  for (std::size_t k : {std::size_t{70}, std::size_t{700}, std::size_t{2998}}) {
    const BigInt& x = fibonacci[k];
    const BigInt& y = fibonacci[k + 1];
    BigRational value(x * g, -(y * g));
    ExpectCanonical(value);
    EXPECT_EQ(value.numerator(), -x) << k;
    EXPECT_EQ(value.denominator(), y) << k;
    EXPECT_EQ(BigRational::FromString(value.ToString()), value) << k;
    // Cross-cancelling multiply and divide land on the same canonical
    // forms: (x·g/y) · (y/g) = x and (x/g) / (y/g) = x/y.
    BigRational product(x * g, y);
    product *= BigRational(y, g);
    ExpectCanonical(product);
    EXPECT_EQ(product, BigRational(x)) << k;
    BigRational quotient(x, g);
    quotient /= BigRational(y, g);
    ExpectCanonical(quotient);
    EXPECT_EQ(quotient, -value) << k;
  }
}

// --- Clearing a weight pair's denominators --------------------------------

void ExpectScaled(const BigRational& w, const BigRational& w_bar,
                  std::int64_t positive, std::int64_t negative,
                  std::int64_t scale) {
  ScaledWeightPair scaled = ClearPairDenominators(w, w_bar);
  EXPECT_EQ(scaled.positive, BigInt(positive)) << w << ", " << w_bar;
  EXPECT_EQ(scaled.negative, BigInt(negative)) << w << ", " << w_bar;
  EXPECT_EQ(scaled.scale, BigInt(scale)) << w << ", " << w_bar;
}

TEST(ClearPairDenominatorsTest, ScalesByTheLcmOfTheTwoDenominators) {
  // lcm(4, 6) = 12, not 24: 1/4 → 3 and 5/6 → 10.
  ExpectScaled(BigRational::Fraction(1, 4), BigRational::Fraction(5, 6), 3,
               10, 12);
  ExpectScaled(BigRational::Fraction(4, 7), BigRational::Fraction(7, 5), 20,
               49, 35);
}

TEST(ClearPairDenominatorsTest, ZeroWeightHasDenominatorOne) {
  ExpectScaled(BigRational(0), BigRational::Fraction(3, 5), 0, 3, 5);
  ExpectScaled(BigRational::Fraction(-2, 9), BigRational(0), -2, 0, 9);
  ExpectScaled(BigRational(0), BigRational(0), 0, 0, 1);
}

TEST(ClearPairDenominatorsTest, NegativeNumeratorsKeepTheirSign) {
  ExpectScaled(BigRational::Fraction(-2, 3), BigRational::Fraction(-1, 6), -4,
               -1, 6);
  ExpectScaled(BigRational::Fraction(1, 2), BigRational::Fraction(-1, 3), 3,
               -2, 6);
}

TEST(ClearPairDenominatorsTest, IntegerPairIsLeftAsIs) {
  ExpectScaled(BigRational(1), BigRational(-1), 1, -1, 1);
  ExpectScaled(BigRational(-3), BigRational(2), -3, 2, 1);
}

}  // namespace
}  // namespace swfomc::numeric
