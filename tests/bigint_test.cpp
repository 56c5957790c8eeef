#include "numeric/bigint.h"

#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

namespace swfomc::numeric {
namespace {

// Test-side stand-ins for operations no route needs: |x|, x · 2^bits and
// the truncated remainder, built on the public arithmetic.
BigInt Abs(const BigInt& x) { return x.IsNegative() ? -x : x; }

BigInt Shl(const BigInt& x, std::size_t bits) {
  return x * BigInt::Pow(BigInt(2), bits);
}

BigInt Rem(const BigInt& a, const BigInt& b) {
  BigInt quotient, remainder;
  BigInt::DivMod(a, b, &quotient, &remainder);
  return remainder;
}

TEST(BigIntTest, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.Sign(), 0);
  EXPECT_EQ(z.ToString(), "0");
  EXPECT_EQ(z.ToInt64(), 0);
}

TEST(BigIntTest, SmallConstruction) {
  EXPECT_EQ(BigInt(42).ToString(), "42");
  EXPECT_EQ(BigInt(-42).ToString(), "-42");
  EXPECT_EQ(BigInt(1).Sign(), 1);
  EXPECT_EQ(BigInt(-1).Sign(), -1);
  EXPECT_TRUE(BigInt(1).IsOne());
  EXPECT_FALSE(BigInt(-1).IsOne());
}

TEST(BigIntTest, Int64Extremes) {
  BigInt min(std::numeric_limits<std::int64_t>::min());
  BigInt max(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(min.ToString(), "-9223372036854775808");
  EXPECT_EQ(max.ToString(), "9223372036854775807");
  EXPECT_EQ(min.ToInt64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(max.ToInt64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_TRUE(min.FitsInt64());
  EXPECT_FALSE((min - BigInt(1)).FitsInt64());
  EXPECT_FALSE((max + BigInt(1)).FitsInt64());
}

TEST(BigIntTest, FromStringRoundTrip) {
  const char* cases[] = {"0",
                         "7",
                         "-7",
                         "123456789",
                         "-987654321012345678901234567890",
                         "340282366920938463463374607431768211456"};
  for (const char* text : cases) {
    EXPECT_EQ(BigInt::FromString(text).ToString(), text) << text;
  }
}

TEST(BigIntTest, FromStringAcceptsPlusAndRejectsGarbage) {
  EXPECT_EQ(BigInt::FromString("+17").ToString(), "17");
  EXPECT_THROW(BigInt::FromString(""), std::invalid_argument);
  EXPECT_THROW(BigInt::FromString("-"), std::invalid_argument);
  EXPECT_THROW(BigInt::FromString("12a3"), std::invalid_argument);
  EXPECT_THROW(BigInt::FromString("1 2"), std::invalid_argument);
}

TEST(BigIntTest, FromStringNegativeZeroNormalizes) {
  EXPECT_TRUE(BigInt::FromString("-0").IsZero());
  EXPECT_EQ(BigInt::FromString("-0000").Sign(), 0);
  EXPECT_EQ(BigInt::FromString("007").ToString(), "7");
}

TEST(BigIntTest, AdditionMatchesInt64) {
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<std::int64_t> dist(-1000000000, 1000000000);
  for (int i = 0; i < 2000; ++i) {
    std::int64_t a = dist(rng), b = dist(rng);
    EXPECT_EQ((BigInt(a) + BigInt(b)).ToInt64(), a + b) << a << " " << b;
    EXPECT_EQ((BigInt(a) - BigInt(b)).ToInt64(), a - b) << a << " " << b;
  }
}

TEST(BigIntTest, MultiplicationMatchesInt128) {
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<std::int64_t> dist(-3000000000LL,
                                                   3000000000LL);
  for (int i = 0; i < 2000; ++i) {
    std::int64_t a = dist(rng), b = dist(rng);
    __int128 expected = static_cast<__int128>(a) * b;
    BigInt product = BigInt(a) * BigInt(b);
    // Render the __int128 for comparison.
    bool negative = expected < 0;
    unsigned __int128 magnitude =
        negative ? -static_cast<unsigned __int128>(expected)
                 : static_cast<unsigned __int128>(expected);
    std::string text;
    if (magnitude == 0) text = "0";
    while (magnitude != 0) {
      text.insert(text.begin(),
                  static_cast<char>('0' + static_cast<int>(magnitude % 10)));
      magnitude /= 10;
    }
    if (negative && text != "0") text.insert(text.begin(), '-');
    EXPECT_EQ(product.ToString(), text) << a << " * " << b;
  }
}

TEST(BigIntTest, DivModMatchesInt64Semantics) {
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::int64_t> dist(-100000, 100000);
  for (int i = 0; i < 3000; ++i) {
    std::int64_t a = dist(rng), b = dist(rng);
    if (b == 0) continue;
    BigInt q, r;
    BigInt::DivMod(BigInt(a), BigInt(b), &q, &r);
    EXPECT_EQ(q.ToInt64(), a / b) << a << " / " << b;
    EXPECT_EQ(r.ToInt64(), a % b) << a << " % " << b;
  }
}

TEST(BigIntTest, DivModInvariantOnLargeOperands) {
  std::mt19937_64 rng(4);
  auto random_bigint = [&rng](int limbs) {
    BigInt value(0);
    for (int i = 0; i < limbs; ++i) {
      value = Shl(value, 32) + BigInt::FromUnsigned(rng() & 0xFFFFFFFFu);
    }
    return value;
  };
  for (int i = 0; i < 200; ++i) {
    BigInt a = random_bigint(1 + static_cast<int>(rng() % 8));
    BigInt b = random_bigint(1 + static_cast<int>(rng() % 4));
    if (b.IsZero()) continue;
    if (rng() & 1) a = -a;
    if (rng() & 1) b = -b;
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_TRUE(Abs(r) < Abs(b));
    if (!r.IsZero()) {
      EXPECT_EQ(r.Sign(), a.Sign());
    }
  }
}

TEST(BigIntTest, DivisionByZeroThrows) {
  BigInt q, r;
  EXPECT_THROW(BigInt::DivMod(BigInt(1), BigInt(0), &q, &r),
               std::domain_error);
  BigInt x(5);
  EXPECT_THROW(x /= BigInt(0), std::domain_error);
}

TEST(BigIntTest, KnuthDivisionAddBackCase) {
  // Exercise multi-limb division near the q_hat correction boundary.
  BigInt a = BigInt::FromString("340282366920938463463374607431768211455");
  BigInt b = BigInt::FromString("18446744073709551615");
  BigInt q, r;
  BigInt::DivMod(a, b, &q, &r);
  EXPECT_EQ(q * b + r, a);
  EXPECT_EQ(q.ToString(), "18446744073709551617");
  EXPECT_EQ(r.ToString(), "0");
}

TEST(BigIntTest, PowSmall) {
  EXPECT_EQ(BigInt::Pow(BigInt(2), 10).ToInt64(), 1024);
  EXPECT_EQ(BigInt::Pow(BigInt(3), 0).ToInt64(), 1);
  EXPECT_EQ(BigInt::Pow(BigInt(0), 0).ToInt64(), 1);  // convention
  EXPECT_EQ(BigInt::Pow(BigInt(0), 5).ToInt64(), 0);
  EXPECT_EQ(BigInt::Pow(BigInt(-2), 3).ToInt64(), -8);
  EXPECT_EQ(BigInt::Pow(BigInt(-2), 4).ToInt64(), 16);
}

TEST(BigIntTest, PowLargeKnownValue) {
  // 2^128
  EXPECT_EQ(BigInt::Pow(BigInt(2), 128).ToString(),
            "340282366920938463463374607431768211456");
  // 10^40
  std::string ten40 = "1";
  ten40.append(40, '0');
  EXPECT_EQ(BigInt::Pow(BigInt(10), 40).ToString(), ten40);
}

TEST(BigIntTest, KaratsubaAgreesWithSchoolbookViaStringCheck) {
  // Build operands large enough to cross the Karatsuba threshold (32
  // limbs = 1024 bits) and verify a multiplication identity:
  // (x + 1)(x - 1) == x^2 - 1.
  BigInt x = BigInt::Pow(BigInt(7), 500);  // ~1400 bits
  BigInt lhs = (x + BigInt(1)) * (x - BigInt(1));
  BigInt rhs = x * x - BigInt(1);
  EXPECT_EQ(lhs, rhs);
}

TEST(BigIntTest, KaratsubaRandomizedCrossCheckAgainstDivision) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 20; ++i) {
    BigInt a(1), b(1);
    int a_limbs = 40 + static_cast<int>(rng() % 30);
    int b_limbs = 40 + static_cast<int>(rng() % 30);
    for (int j = 0; j < a_limbs; ++j) {
      a = Shl(a, 32) + BigInt::FromUnsigned(rng() & 0xFFFFFFFFu);
    }
    for (int j = 0; j < b_limbs; ++j) {
      b = Shl(b, 32) + BigInt::FromUnsigned(rng() & 0xFFFFFFFFu);
    }
    BigInt product = a * b;
    BigInt q, r;
    BigInt::DivMod(product, b, &q, &r);
    EXPECT_EQ(q, a);
    EXPECT_TRUE(r.IsZero());
  }
}

TEST(BigIntTest, ComparisonTotalOrder) {
  std::vector<BigInt> ordered = {
      BigInt::FromString("-100000000000000000000"), BigInt(-5), BigInt(0),
      BigInt(3), BigInt::FromString("99999999999999999999")};
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    for (std::size_t j = 0; j < ordered.size(); ++j) {
      EXPECT_EQ(ordered[i] < ordered[j], i < j);
      EXPECT_EQ(ordered[i] == ordered[j], i == j);
      EXPECT_EQ(ordered[i] <= ordered[j], i <= j);
    }
  }
}

TEST(BigIntTest, Negation) {
  BigInt a(-17);
  EXPECT_EQ((-a).ToInt64(), 17);
  EXPECT_EQ((-BigInt(0)).Sign(), 0);
}

TEST(BigIntTest, GcdBasics) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToInt64(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToInt64(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToInt64(), 5);
  EXPECT_EQ(BigInt::Gcd(BigInt(7), BigInt(0)).ToInt64(), 7);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(0)).ToInt64(), 0);
  // gcd(2^100, 2^60) = 2^60.
  EXPECT_EQ(BigInt::Gcd(BigInt::Pow(BigInt(2), 100),
                        BigInt::Pow(BigInt(2), 60)),
            BigInt::Pow(BigInt(2), 60));
}

// Euclid's algorithm with one full division per quotient: slow, but
// obviously right, so it is the oracle for Gcd.
BigInt EuclidGcd(BigInt a, BigInt b) {
  a = Abs(a);
  b = Abs(b);
  while (!b.IsZero()) {
    BigInt r = Rem(a, b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

// A value of exactly `limbs` 32-bit limbs (0 limbs is zero).
BigInt RandomLimbs(std::mt19937_64& rng, int limbs) {
  BigInt value;
  for (int i = 0; i < limbs; ++i) {
    std::uint64_t limb = rng() & 0xFFFFFFFFu;
    if (i == 0 && limb == 0) limb = 1;
    value = Shl(value, 32) + BigInt(static_cast<std::int64_t>(limb));
  }
  return value;
}

void ExpectGcdMatchesOracle(const BigInt& a, const BigInt& b) {
  BigInt expected = EuclidGcd(a, b);
  EXPECT_EQ(BigInt::Gcd(a, b), expected) << a << ", " << b;
  EXPECT_EQ(BigInt::Gcd(b, a), expected) << b << ", " << a;
  EXPECT_EQ(BigInt::Gcd(-a, b), expected) << -a << ", " << b;
}

TEST(BigIntTest, GcdMatchesEuclidOracle) {
  std::mt19937_64 rng(20240529);
  // Random pairs with a planted common factor, inline and heap sizes.
  for (int trial = 0; trial < 400; ++trial) {
    BigInt factor = RandomLimbs(rng, static_cast<int>(rng() % 21));
    if (factor.IsZero()) factor = BigInt(1);
    BigInt a = RandomLimbs(rng, 1 + static_cast<int>(rng() % 40)) * factor;
    BigInt b = RandomLimbs(rng, 1 + static_cast<int>(rng() % 40)) * factor;
    ExpectGcdMatchesOracle(a, b);
  }

  // Consecutive Fibonacci numbers make every quotient 1, the longest run
  // of single steps the top words must agree on; gcd(F_m, F_n) =
  // F_gcd(m, n) gives the answer without an oracle.
  std::vector<BigInt> fibonacci = {BigInt(0), BigInt(1)};
  while (fibonacci.back().BitLength() < 3500) {
    fibonacci.push_back(fibonacci[fibonacci.size() - 1] +
                        fibonacci[fibonacci.size() - 2]);
  }
  ASSERT_GT(fibonacci.size(), 5000u);
  std::size_t last = fibonacci.size() - 1;
  for (std::size_t k = 90; k < last; k += 97) {
    EXPECT_EQ(BigInt::Gcd(fibonacci[k], fibonacci[k + 1]), BigInt(1)) << k;
    EXPECT_EQ(BigInt::Gcd(fibonacci[k + 1], fibonacci[k]), BigInt(1)) << k;
  }
  ExpectGcdMatchesOracle(fibonacci[last], fibonacci[last - 1]);
  EXPECT_EQ(BigInt::Gcd(fibonacci[4800], fibonacci[3600]), fibonacci[1200]);
  EXPECT_EQ(BigInt::Gcd(fibonacci[4998], fibonacci[4284]), fibonacci[714]);
  ExpectGcdMatchesOracle(fibonacci[1500] * fibonacci[700],
                         fibonacci[1501] * fibonacci[700]);

  // One inline operand and one heap operand, both orders.
  BigInt heap = BigInt::Pow(BigInt(6), 80) * BigInt(1000003);
  const std::int64_t smalls[] = {1,          -6,           1000003,
                                 4294967296, 999999999989,
                                 std::numeric_limits<std::int64_t>::max()};
  for (std::int64_t small : smalls) {
    ExpectGcdMatchesOracle(heap, BigInt(small));
  }

  // Values at ±2^63: INT64_MIN is inline, +2^63 is heap.
  const BigInt min(std::numeric_limits<std::int64_t>::min());
  const BigInt two63 = BigInt::FromUnsigned(std::uint64_t{1} << 63);
  EXPECT_EQ(BigInt::Gcd(min, BigInt(0)), two63);
  EXPECT_EQ(BigInt::Gcd(min, min), two63);
  EXPECT_EQ(BigInt::Gcd(min, two63), two63);
  EXPECT_EQ(BigInt::Gcd(-two63, Shl(two63, 40)), two63);
  EXPECT_EQ(BigInt::Gcd(min, BigInt(-12)), BigInt(4));
  ExpectGcdMatchesOracle(min, BigInt::Pow(BigInt(2), 200) * BigInt(3));
  ExpectGcdMatchesOracle(two63 + BigInt(1), BigInt::Pow(BigInt(3), 150));

  // Zero, negative and equal operands.
  BigInt big = BigInt::Pow(BigInt(10), 60) + BigInt(7);
  EXPECT_EQ(BigInt::Gcd(big, BigInt(0)), big);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), -big), big);
  EXPECT_EQ(BigInt::Gcd(big, big), big);
  EXPECT_EQ(BigInt::Gcd(-big, big), big);
  EXPECT_EQ(BigInt::Gcd(-big, -big), big);

  // Top 32 bits equal: the first quotient is 1, but the top words cannot
  // tell it from 0, so Gcd must take a full division step.
  for (int trial = 0; trial < 50; ++trial) {
    int limbs = 3 + static_cast<int>(rng() % 30);
    BigInt top = Shl(RandomLimbs(rng, 1), 32 * (limbs - 1));
    BigInt a = top + RandomLimbs(rng, limbs - 1);
    BigInt b = top + RandomLimbs(rng, limbs - 1);
    ExpectGcdMatchesOracle(a, b);
    ExpectGcdMatchesOracle(a * BigInt(1000003), b * BigInt(1000003));
  }

  // A γ-acyclic count against Π D^tuples, the one reduction per point
  // of the γ-acyclic evaluator: weights 2/3 and 1/7 scale to a = 14 and
  // b = 3 over D = 21, and ∃x R(x) over n tuples counts t^n − b^n with
  // t = a + b. 7 divides t − b and n = 700, so the gcd is 7^2.
  constexpr std::uint64_t kTuples = 700;
  BigInt count = BigInt::Pow(BigInt(17), kTuples) -
                 BigInt::Pow(BigInt(3), kTuples);
  EXPECT_EQ(BigInt::Gcd(count, BigInt::Pow(BigInt(21), kTuples)), BigInt(49));
  ExpectGcdMatchesOracle(count, BigInt::Pow(BigInt(21), kTuples));
}

TEST(BigIntTest, ShiftRight) {
  EXPECT_EQ(BigInt::Pow(BigInt(2), 100).ShiftRight(100), BigInt(1));
  EXPECT_EQ(BigInt(5).ShiftRight(1).ToInt64(), 2);
  EXPECT_EQ(BigInt(5).ShiftRight(10).ToInt64(), 0);
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt::Pow(BigInt(2), 100).BitLength(), 101u);
}

TEST(BigIntTest, ToDoubleApproximates) {
  EXPECT_DOUBLE_EQ(BigInt(12345).ToDouble(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-7).ToDouble(), -7.0);
  double big = BigInt::Pow(BigInt(2), 70).ToDouble();
  EXPECT_NEAR(big, std::pow(2.0, 70.0), big * 1e-12);
}

TEST(BigIntTest, StreamOutput) {
  std::ostringstream os;
  os << BigInt(-123);
  EXPECT_EQ(os.str(), "-123");
}

TEST(BigIntTest, SelfAliasingOperations) {
  BigInt a(7);
  a += a;
  EXPECT_EQ(a.ToInt64(), 14);
  a *= a;
  EXPECT_EQ(a.ToInt64(), 196);
  a -= a;
  EXPECT_TRUE(a.IsZero());
}

TEST(BigIntTest, FactorialLikeAccumulation) {
  BigInt f(1);
  for (int i = 2; i <= 30; ++i) f *= BigInt(i);
  EXPECT_EQ(f.ToString(), "265252859812191058636308480000000");
}

// --- Regression corpus for the WMC-scale arithmetic paths (this PR) ----
// Model counts reach thousands of bits, where multiplication crosses the
// Karatsuba threshold and sweep normalizers divide huge rationals; these
// tests pin the threshold boundary and the DivMod sign contract with an
// independent reference implementation.

namespace {

// Pseudorandom positive value with exactly `limbs` 32-bit limbs,
// constructed through the public interface only.
BigInt RandomMagnitude(std::mt19937_64* rng, std::size_t limbs) {
  BigInt result;
  for (std::size_t i = 0; i < limbs; ++i) {
    std::uint32_t limb = static_cast<std::uint32_t>((*rng)());
    if (i + 1 == limbs && limb == 0) limb = 1;  // keep the top limb set
    result = Shl(result, 32) + BigInt::FromUnsigned(limb);
  }
  return result;
}

// Reference product via 32-bit decomposition of b, Horner from the top
// limb: every product has a factor of at most two limbs (a chunk, or the
// 2^32 of Shl(·, 32)), which stays on the schoolbook path — so this
// checks Karatsuba against schoolbook without private access.
BigInt ReferenceMul(const BigInt& a, BigInt b) {
  bool negative = b.IsNegative();
  if (negative) b = -b;
  std::vector<BigInt> chunks;  // least significant first
  while (!b.IsZero()) {
    chunks.push_back(b - Shl(b.ShiftRight(32), 32));
    b = b.ShiftRight(32);
  }
  BigInt accumulator;
  for (std::size_t i = chunks.size(); i-- > 0;) {
    accumulator = Shl(accumulator, 32) + a * chunks[i];
  }
  return negative ? -accumulator : accumulator;
}

}  // namespace

TEST(BigIntTest, KaratsubaThresholdBoundary) {
  // The Karatsuba fast path engages when both operands reach 32 limbs;
  // products straddling the boundary (31/32/33 limbs) and unbalanced
  // shapes (64 x 32) must agree with the schoolbook reference exactly.
  std::mt19937_64 rng(20260731);
  const std::size_t sizes[] = {1, 31, 32, 33, 40, 63, 64, 65, 96};
  for (std::size_t a_limbs : sizes) {
    for (std::size_t b_limbs : sizes) {
      BigInt a = RandomMagnitude(&rng, a_limbs);
      BigInt b = RandomMagnitude(&rng, b_limbs);
      BigInt product = a * b;
      EXPECT_EQ(product, ReferenceMul(a, b))
          << a_limbs << "x" << b_limbs << " limbs";
      EXPECT_EQ(product, b * a) << "commutativity " << a_limbs << "x"
                                << b_limbs;
      // Bit lengths of exact products: |a|+|b|-1 or |a|+|b|.
      EXPECT_GE(product.BitLength(), a.BitLength() + b.BitLength() - 1);
      EXPECT_LE(product.BitLength(), a.BitLength() + b.BitLength());
    }
  }
}

TEST(BigIntTest, KaratsubaPowersOfTwoAndAllOnes) {
  // Sparse-limb operands stress the split-and-recombine carries: trailing
  // zero limbs in the split halves and maximal carries from all-ones.
  BigInt two_pow_2047 = BigInt::Pow(BigInt(2), 2047);
  BigInt all_ones = two_pow_2047 - BigInt(1);  // 2^2047 - 1: 64 full limbs
  EXPECT_EQ(all_ones * all_ones,
            BigInt::Pow(BigInt(2), 4094) - Shl(two_pow_2047, 1) +
                BigInt(1));
  BigInt sparse = BigInt::Pow(BigInt(2), 2016) + BigInt(1);  // zero middle
  EXPECT_EQ(sparse * all_ones, ReferenceMul(sparse, all_ones));
}

TEST(BigIntTest, DivModSignInvariants) {
  // Truncated division contract: a == q*b + r, |r| < |b|, and r is zero
  // or carries the sign of a — for every sign combination, across the
  // multi-limb Knuth path (divisor >= 2 limbs) and the single-limb fast
  // path.
  std::mt19937_64 rng(987654321);
  const std::size_t a_sizes[] = {1, 2, 5, 33, 64};
  const std::size_t b_sizes[] = {1, 2, 3, 32};
  for (std::size_t a_limbs : a_sizes) {
    for (std::size_t b_limbs : b_sizes) {
      for (int signs = 0; signs < 4; ++signs) {
        BigInt a = RandomMagnitude(&rng, a_limbs);
        BigInt b = RandomMagnitude(&rng, b_limbs);
        if (signs & 1) a = -a;
        if (signs & 2) b = -b;
        BigInt quotient, remainder;
        BigInt::DivMod(a, b, &quotient, &remainder);
        EXPECT_EQ(quotient * b + remainder, a)
            << a.ToString() << " / " << b.ToString();
        EXPECT_LT(Abs(remainder), Abs(b));
        if (!remainder.IsZero()) {
          EXPECT_EQ(remainder.Sign(), a.Sign())
              << a.ToString() << " % " << b.ToString();
        }
        EXPECT_EQ(a / b, quotient);
      }
    }
  }
}

TEST(BigIntTest, DivModKnuthQhatCorrectionCases) {
  // Dividends engineered to force the q̂-overestimate correction loops in
  // algorithm D: all-ones dividends against divisors with a maximal top
  // limb and a minimal second limb.
  BigInt dividend = BigInt::Pow(BigInt(2), 320) - BigInt(1);
  BigInt divisor =
      Shl(BigInt::FromUnsigned(0xFFFFFFFFull), 32) + BigInt(1);
  BigInt quotient, remainder;
  BigInt::DivMod(dividend, divisor, &quotient, &remainder);
  EXPECT_EQ(quotient * divisor + remainder, dividend);
  EXPECT_LT(Abs(remainder), Abs(divisor));

  // Exact division and off-by-one neighbours around a huge product.
  std::mt19937_64 rng(5);
  BigInt a = RandomMagnitude(&rng, 48);
  BigInt b = RandomMagnitude(&rng, 17);
  BigInt product = a * b;
  EXPECT_EQ(product / b, a);
  EXPECT_TRUE(Rem(product, b).IsZero());
  EXPECT_EQ((product - BigInt(1)) / b, a - BigInt(1));
  EXPECT_EQ(Rem(product - BigInt(1), b), b - BigInt(1));
  EXPECT_EQ((product + BigInt(1)) / b, a);
  EXPECT_EQ(Rem(product + BigInt(1), b), BigInt(1));
}

TEST(BigIntTest, Int64BoundaryRoundTrips) {
  BigInt min64(std::numeric_limits<std::int64_t>::min());
  BigInt max64(std::numeric_limits<std::int64_t>::max());
  EXPECT_TRUE(min64.FitsInt64());
  EXPECT_TRUE(max64.FitsInt64());
  EXPECT_EQ(min64.ToInt64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(max64.ToInt64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_FALSE((max64 + BigInt(1)).FitsInt64());
  EXPECT_FALSE((min64 - BigInt(1)).FitsInt64());
  EXPECT_EQ((min64 / BigInt(-1)), max64 + BigInt(1));
}

TEST(BigIntTest, ShiftRightAtOrPastBitLength) {
  // Shifting by >= BitLength() must produce canonical zero — including
  // for negative values, where a stale sign bit once survived.
  for (const char* text :
       {"1", "-1", "123456789", "-123456789",
        "340282366920938463463374607431768211456",
        "-340282366920938463463374607431768211456"}) {
    BigInt value = BigInt::FromString(text);
    std::size_t length = value.BitLength();
    for (std::size_t bits : {length, length + 1, length + 32, length + 129}) {
      BigInt shifted = value.ShiftRight(bits);
      EXPECT_TRUE(shifted.IsZero()) << text << " >> " << bits;
      EXPECT_EQ(shifted.Sign(), 0) << text << " >> " << bits;
      EXPECT_EQ(shifted, BigInt(0)) << text << " >> " << bits;
      EXPECT_EQ(shifted.ToString(), "0") << text << " >> " << bits;
    }
    // One bit short of the length leaves the top bit (magnitude 1).
    if (!value.IsZero()) {
      EXPECT_EQ(Abs(value.ShiftRight(length - 1)), BigInt(1)) << text;
    }
  }
}

TEST(BigIntTest, ShiftRightAtLimbMultiples) {
  BigInt value = BigInt::FromString("340282366920938463463374607431768211457");
  // 2^128 + 1: dropping exact limb counts must keep the remaining limbs.
  EXPECT_EQ(value.ShiftRight(32), BigInt::Pow(BigInt(2), 96));
  EXPECT_EQ(value.ShiftRight(64), BigInt::Pow(BigInt(2), 64));
  EXPECT_EQ(value.ShiftRight(96), BigInt::Pow(BigInt(2), 32));
  EXPECT_EQ(value.ShiftRight(128), BigInt(1));
  EXPECT_EQ(value.ShiftRight(129), BigInt(0));
}

TEST(BigIntTest, PromoteDemoteBoundaryRoundTrips) {
  // Crossing ±2^63 in both directions lands back on the inline form with
  // full equality against a freshly built value (the representation is
  // canonical, so == is field-wise).
  BigInt max64(std::numeric_limits<std::int64_t>::max());
  BigInt min64(std::numeric_limits<std::int64_t>::min());
  BigInt up = max64;
  up += BigInt(1);  // 2^63: heap
  EXPECT_FALSE(up.FitsInt64());
  up -= BigInt(1);  // back to 2^63 - 1: inline again
  EXPECT_TRUE(up.FitsInt64());
  EXPECT_EQ(up, max64);
  EXPECT_EQ(up.ToInt64(), std::numeric_limits<std::int64_t>::max());

  BigInt down = min64;  // -2^63 is the inline negative extreme
  EXPECT_TRUE(down.FitsInt64());
  down -= BigInt(1);  // -2^63 - 1: heap
  EXPECT_FALSE(down.FitsInt64());
  down += BigInt(1);
  EXPECT_TRUE(down.FitsInt64());
  EXPECT_EQ(down, min64);

  // Negation across the asymmetric boundary: -(-2^63) needs the heap,
  // and negating back must demote.
  BigInt flipped = -min64;
  EXPECT_FALSE(flipped.FitsInt64());
  EXPECT_EQ(flipped.ToString(), "9223372036854775808");
  EXPECT_EQ(-flipped, min64);
  EXPECT_TRUE((-flipped).FitsInt64());

  // Division is a demotion path too: 2^63 / -1 → -2^63 inline.
  EXPECT_EQ(flipped / BigInt(-1), min64);
  EXPECT_TRUE((flipped / BigInt(-1)).FitsInt64());
}

TEST(BigIntTest, ArithmeticStraddlingTheInlineBoundary) {
  // Products and sums whose operands are inline but whose results are
  // not (and vice versa) — the overflow-intrinsic fast paths must commit
  // only on success.
  BigInt two62 = BigInt::Pow(BigInt(2), 62);
  EXPECT_TRUE(two62.FitsInt64());
  EXPECT_FALSE((two62 * BigInt(2)).FitsInt64());
  EXPECT_EQ((two62 * BigInt(2)) - two62, two62);
  EXPECT_TRUE(((two62 * BigInt(2)) - two62).FitsInt64());
  EXPECT_EQ(two62 * BigInt(-2), BigInt(std::numeric_limits<std::int64_t>::min()));
  EXPECT_TRUE((two62 * BigInt(-2)).FitsInt64());

  // (2^62) * (2^62) then divided back down: promote through multiply,
  // demote through divide.
  BigInt square = two62 * two62;
  EXPECT_FALSE(square.FitsInt64());
  EXPECT_EQ(square / two62, two62);
  EXPECT_TRUE((square / two62).FitsInt64());
  EXPECT_EQ(Rem(square, two62), BigInt(0));

  // Sum of two inline extremes: max + max = 2^64 - 2 (heap), minus max
  // demotes again.
  BigInt max64(std::numeric_limits<std::int64_t>::max());
  BigInt double_max = max64 + max64;
  EXPECT_FALSE(double_max.FitsInt64());
  EXPECT_EQ(double_max - max64, max64);
  EXPECT_TRUE((double_max - max64).FitsInt64());
}

}  // namespace
}  // namespace swfomc::numeric
