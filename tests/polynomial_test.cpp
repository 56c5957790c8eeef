#include "numeric/polynomial.h"

#include <random>

#include <gtest/gtest.h>

namespace swfomc::numeric {
namespace {

Polynomial FromInts(std::initializer_list<std::int64_t> coefficients) {
  std::vector<BigRational> c;
  for (std::int64_t v : coefficients) c.emplace_back(v);
  return Polynomial(std::move(c));
}

// Horner evaluation through the public coefficients: the reference the
// interpolation tests check against.
BigRational EvaluateAt(const Polynomial& p, const BigRational& x) {
  BigRational result;
  for (std::size_t i = p.Degree() + 1; i-- > 0;) {
    result = result * x + p.Coefficient(i);
  }
  return result;
}

TEST(PolynomialTest, ZeroPolynomial) {
  Polynomial z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.Degree(), 0u);
}

TEST(PolynomialTest, TrailingZerosTrimmed) {
  Polynomial p = FromInts({1, 2, 0, 0});
  EXPECT_EQ(p.Degree(), 1u);
  EXPECT_EQ(p, FromInts({1, 2}));
}

TEST(PolynomialTest, Addition) {
  EXPECT_EQ(FromInts({1, 2}) + FromInts({0, 0, 5}), FromInts({1, 2, 5}));
  // Cancellation of the leading term trims degree.
  EXPECT_EQ(FromInts({1, 0, 3}) + FromInts({0, 0, -3}), FromInts({1}));
}

TEST(PolynomialTest, Multiplication) {
  // (x + 1)(x - 1) = x^2 - 1.
  EXPECT_EQ(FromInts({1, 1}) * FromInts({-1, 1}), FromInts({-1, 0, 1}));
  EXPECT_EQ(FromInts({2}) * FromInts({0, 0, 3}), FromInts({0, 0, 6}));
  EXPECT_TRUE((Polynomial() * FromInts({1, 2, 3})).IsZero());
}

TEST(PolynomialTest, InterpolateRecoversPolynomial) {
  std::mt19937_64 rng(21);
  std::uniform_int_distribution<std::int64_t> dist(-9, 9);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t degree = rng() % 6;
    std::vector<BigRational> coefficients;
    for (std::size_t i = 0; i <= degree; ++i) {
      coefficients.emplace_back(dist(rng));
    }
    Polynomial p(coefficients);
    std::vector<std::pair<BigRational, BigRational>> points;
    for (std::size_t x = 0; x <= degree; ++x) {
      BigRational bx(static_cast<std::int64_t>(x));
      points.emplace_back(bx, EvaluateAt(p, bx));
    }
    Polynomial q = Polynomial::Interpolate(points);
    EXPECT_EQ(p, q);
  }
}

TEST(PolynomialTest, InterpolateRationalPoints) {
  // Through (0,1), (1,1/2), (2,1/3) -- a genuine rational-coefficient fit.
  std::vector<std::pair<BigRational, BigRational>> points = {
      {BigRational(0), BigRational(1)},
      {BigRational(1), BigRational::Fraction(1, 2)},
      {BigRational(2), BigRational::Fraction(1, 3)}};
  Polynomial p = Polynomial::Interpolate(points);
  for (const auto& [x, y] : points) {
    EXPECT_EQ(EvaluateAt(p, x), y);
  }
}

TEST(PolynomialTest, InterpolateDuplicateXThrows) {
  std::vector<std::pair<BigRational, BigRational>> points = {
      {BigRational(1), BigRational(1)}, {BigRational(1), BigRational(2)}};
  EXPECT_THROW(Polynomial::Interpolate(points), std::invalid_argument);
}

TEST(PolynomialTest, CoefficientBeyondDegreeIsZero) {
  Polynomial p = FromInts({1, 2});
  EXPECT_EQ(p.Coefficient(0), BigRational(1));
  EXPECT_EQ(p.Coefficient(1), BigRational(2));
  EXPECT_EQ(p.Coefficient(99), BigRational(0));
}

}  // namespace
}  // namespace swfomc::numeric
