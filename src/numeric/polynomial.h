#ifndef SWFOMC_NUMERIC_POLYNOMIAL_H_
#define SWFOMC_NUMERIC_POLYNOMIAL_H_

#include <utility>
#include <vector>

#include "numeric/rational.h"

namespace swfomc::numeric {

/// Dense univariate polynomial over BigRational.
///
/// Two of the paper's arguments are literally polynomial arguments and this
/// class runs them:
///   * Section 2 observes that WFOMC(Φ,n,w) is a multivariate polynomial in
///     the relation weights and that an evaluation oracle at positive points
///     determines it everywhere (so negative weights add no hardness);
///   * Lemma 3.5 recovers WFOMC(Φ,n,w) as the degree-n coefficient of a
///     degree-n² polynomial from oracle calls (the proof takes finite
///     differences; Interpolate below recovers every coefficient at once).
class Polynomial {
 public:
  /// The zero polynomial.
  Polynomial() = default;
  /// From low-to-high coefficient list (trailing zeros are trimmed).
  explicit Polynomial(std::vector<BigRational> coefficients);
  /// The constant polynomial c.
  static Polynomial Constant(BigRational c);

  /// Degree; the zero polynomial has degree 0 by convention here.
  std::size_t Degree() const {
    return coefficients_.empty() ? 0 : coefficients_.size() - 1;
  }
  bool IsZero() const { return coefficients_.empty(); }

  /// Coefficient of x^k (0 beyond the degree).
  const BigRational& Coefficient(std::size_t k) const;

  Polynomial& operator+=(const Polynomial& other);
  Polynomial& operator*=(const Polynomial& other);

  friend Polynomial operator+(Polynomial a, const Polynomial& b) {
    return a += b;
  }
  friend Polynomial operator*(Polynomial a, const Polynomial& b) {
    return a *= b;
  }

  friend bool operator==(const Polynomial& a, const Polynomial& b) {
    return a.coefficients_ == b.coefficients_;
  }
  friend bool operator!=(const Polynomial& a, const Polynomial& b) {
    return !(a == b);
  }

  /// Unique polynomial of degree < points.size() through the given
  /// (x, y) pairs (Lagrange). Throws std::invalid_argument on duplicate x.
  static Polynomial Interpolate(
      const std::vector<std::pair<BigRational, BigRational>>& points);

 private:
  void Trim();

  // Low-to-high; invariant: no trailing zero coefficient.
  std::vector<BigRational> coefficients_;
};

}  // namespace swfomc::numeric

#endif  // SWFOMC_NUMERIC_POLYNOMIAL_H_
