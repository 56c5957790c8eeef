#include "numeric/polynomial.h"

#include <stdexcept>
#include <utility>

namespace swfomc::numeric {

namespace {
const BigRational kZero;
}  // namespace

Polynomial::Polynomial(std::vector<BigRational> coefficients)
    : coefficients_(std::move(coefficients)) {
  Trim();
}

Polynomial Polynomial::Constant(BigRational c) {
  return Polynomial({std::move(c)});
}

const BigRational& Polynomial::Coefficient(std::size_t k) const {
  if (k >= coefficients_.size()) return kZero;
  return coefficients_[k];
}

Polynomial& Polynomial::operator+=(const Polynomial& other) {
  if (other.coefficients_.size() > coefficients_.size()) {
    coefficients_.resize(other.coefficients_.size());
  }
  for (std::size_t i = 0; i < other.coefficients_.size(); ++i) {
    coefficients_[i] += other.coefficients_[i];
  }
  Trim();
  return *this;
}

Polynomial& Polynomial::operator*=(const Polynomial& other) {
  if (coefficients_.empty() || other.coefficients_.empty()) {
    coefficients_.clear();
    return *this;
  }
  std::vector<BigRational> result(
      coefficients_.size() + other.coefficients_.size() - 1);
  for (std::size_t i = 0; i < coefficients_.size(); ++i) {
    if (coefficients_[i].IsZero()) continue;
    for (std::size_t j = 0; j < other.coefficients_.size(); ++j) {
      result[i + j] += coefficients_[i] * other.coefficients_[j];
    }
  }
  coefficients_ = std::move(result);
  Trim();
  return *this;
}

Polynomial Polynomial::Interpolate(
    const std::vector<std::pair<BigRational, BigRational>>& points) {
  Polynomial result;
  for (std::size_t i = 0; i < points.size(); ++i) {
    // Basis polynomial L_i with L_i(x_i)=1, L_i(x_j)=0 for j != i.
    Polynomial basis = Polynomial::Constant(BigRational(1));
    BigRational denominator(1);
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (j == i) continue;
      BigRational dx = points[i].first - points[j].first;
      if (dx.IsZero()) {
        throw std::invalid_argument(
            "Polynomial::Interpolate: duplicate x value");
      }
      basis *= Polynomial({-points[j].first, BigRational(1)});
      denominator *= dx;
    }
    basis *= Polynomial::Constant(points[i].second / denominator);
    result += basis;
  }
  return result;
}

void Polynomial::Trim() {
  while (!coefficients_.empty() && coefficients_.back().IsZero()) {
    coefficients_.pop_back();
  }
}

}  // namespace swfomc::numeric
