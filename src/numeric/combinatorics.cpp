#include "numeric/combinatorics.h"

#include <limits>
#include <stdexcept>

namespace swfomc::numeric {

BigInt Factorial(std::uint64_t n) {
  thread_local FactorialTable table;
  return table.Get(n);
}

BigInt Binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return BigInt(0);
  if (k > n - k) k = n - k;
  BigInt result(1);
  for (std::uint64_t i = 0; i < k; ++i) {
    result *= BigInt::FromUnsigned(n - i);
    result /= BigInt::FromUnsigned(i + 1);
  }
  return result;
}

BigInt Multinomial(std::uint64_t n, const std::vector<std::uint64_t>& parts) {
  std::uint64_t sum = 0;
  for (std::uint64_t p : parts) sum += p;
  if (sum != n) {
    throw std::invalid_argument("Multinomial: parts do not sum to n");
  }
  BigInt result(1);
  std::uint64_t remaining = n;
  for (std::uint64_t p : parts) {
    result *= Binomial(remaining, p);
    remaining -= p;
  }
  return result;
}

void ForEachComposition(
    std::uint64_t total, std::size_t parts,
    const std::function<bool(const std::vector<std::uint64_t>&)>& visit) {
  if (parts == 0) {
    if (total == 0) visit({});
    return;
  }
  std::vector<std::uint64_t> current(parts, 0);
  // Recursive fill of positions [index, parts) summing to `remaining`.
  std::function<bool(std::size_t, std::uint64_t)> fill =
      [&](std::size_t index, std::uint64_t remaining) -> bool {
    if (index + 1 == parts) {
      current[index] = remaining;
      return visit(current);
    }
    for (std::uint64_t value = 0; value <= remaining; ++value) {
      current[index] = value;
      if (!fill(index + 1, remaining - value)) return false;
    }
    return true;
  };
  fill(0, total);
}

BigInt CompositionCount(std::uint64_t total, std::size_t parts) {
  if (parts == 0) return BigInt(total == 0 ? 1 : 0);
  return Binomial(total + parts - 1, static_cast<std::uint64_t>(parts - 1));
}

const BigInt& FactorialTable::Get(std::uint64_t n) {
  if (values_.empty()) values_.push_back(BigInt(1));  // 0! = 1
  while (values_.size() <= n) {
    values_.push_back(values_.back() *
                      BigInt::FromUnsigned(values_.size()));
  }
  return values_[n];
}

const BigInt& BinomialTable::Get(std::uint64_t n, std::uint64_t k) {
  static const BigInt kZero(0);
  if (k > n) return kZero;
  while (rows_.size() <= n) {
    std::size_t row_index = rows_.size();
    std::vector<BigInt> row(row_index + 1, BigInt(1));
    for (std::size_t j = 1; j < row_index; ++j) {
      row[j] = rows_[row_index - 1][j - 1] + rows_[row_index - 1][j];
    }
    rows_.push_back(std::move(row));
  }
  return rows_[n][k];
}

std::uint64_t TupleCount(std::uint64_t domain_size, std::size_t arity) {
  if (domain_size <= 1) return arity == 0 ? 1 : domain_size;
  std::uint64_t tuples = 1;
  for (std::size_t i = 0; i < arity; ++i) {
    // n >= 2, so this throws within 64 multiplies whatever the arity.
    if (tuples > std::numeric_limits<std::uint64_t>::max() / domain_size) {
      throw std::invalid_argument("TupleCount: too many ground tuples");
    }
    tuples *= domain_size;
  }
  return tuples;
}

BigRational TotalWeight(std::uint64_t domain_size,
                        const std::vector<std::size_t>& arities,
                        const WeightPairs& weights) {
  BigRational total(1);
  for (std::size_t id = 0; id < arities.size(); ++id) {
    const auto& [positive, negative] = weights.at(id);
    total *= BigRational::Pow(
        positive + negative,
        static_cast<std::int64_t>(TupleCount(domain_size, arities[id])));
  }
  return total;
}

}  // namespace swfomc::numeric
