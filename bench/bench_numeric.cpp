// Numeric layer microbenchmarks — the arithmetic the counters live in.
//
// The BigInt/Rational hot paths this file pins down:
//
//   BM_Numeric_SmallChain         int64-range add/mul chains that must
//                                 never leave the inline representation
//   BM_Numeric_BoundaryStraddle   products near ±2^62 that promote to
//                                 heap limbs and demote back on divide
//   BM_Numeric_BigMulDiv          multi-limb multiply + divide (the
//                                 schoolbook/Karatsuba regime)
//   BM_Numeric_RationalEager      a counter-shaped accumulation over
//                                 BigRational, one gcd reduction per
//                                 operation
//   BM_Numeric_Gcd                the one reduction per γ-acyclic point:
//                                 a count against Π D^tuples, by bits
//   BM_Numeric_GcdFibonacci       consecutive Fibonacci numbers, where
//                                 every Euclid quotient is 1
//
// RationalEager prices the canonical-rational arithmetic the counters
// avoid by clearing denominators and counting in BigInt; SmallChain vs.
// BoundaryStraddle isolates what the inline word buys before any heap
// work starts.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "numeric/bigint.h"
#include "numeric/rational.h"

namespace {

using swfomc::numeric::BigInt;
using swfomc::numeric::BigRational;

// Deterministic small operands (no <random> so rows are exactly
// reproducible across standard libraries).
std::vector<std::int64_t> SmallOperands(std::size_t count) {
  std::vector<std::int64_t> values;
  values.reserve(count);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < count; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(static_cast<std::int64_t>(x % 2001) - 1000);
  }
  return values;
}

void BM_Numeric_SmallChain(benchmark::State& state) {
  std::vector<std::int64_t> operands = SmallOperands(256);
  for (auto _ : state) {
    BigInt accumulator(1);
    for (std::int64_t value : operands) {
      accumulator += BigInt(value);
      accumulator *= BigInt(3);
      accumulator -= BigInt(value * 2);
      accumulator = accumulator / BigInt(3);  // keeps the chain inline
    }
    benchmark::DoNotOptimize(accumulator);
  }
}
BENCHMARK(BM_Numeric_SmallChain);

void BM_Numeric_BoundaryStraddle(benchmark::State& state) {
  // Each step promotes (product of two near-2^62 words needs two limbs)
  // and demotes (the divide lands back inside the inline word).
  constexpr std::int64_t kNearBoundary = (std::int64_t{1} << 62) - 3;
  BigInt a(kNearBoundary);
  BigInt b(-kNearBoundary + 10);
  for (auto _ : state) {
    BigInt accumulator(0);
    for (int i = 0; i < 128; ++i) {
      BigInt product = a * b;        // heap
      accumulator += product / a;    // back to inline
      benchmark::DoNotOptimize(product);
    }
    benchmark::DoNotOptimize(accumulator);
  }
}
BENCHMARK(BM_Numeric_BoundaryStraddle);

void BM_Numeric_BigMulDiv(benchmark::State& state) {
  // range(0) = decimal digits per operand: 40 stays schoolbook, 600
  // crosses the Karatsuba threshold.
  std::string digits_a, digits_b;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    digits_a.push_back('1' + static_cast<char>(i % 9));
    digits_b.push_back('9' - static_cast<char>(i % 7));
  }
  BigInt a = BigInt::FromString(digits_a);
  BigInt b = BigInt::FromString(digits_b);
  for (auto _ : state) {
    BigInt product = a * b;
    benchmark::DoNotOptimize(product / b);
    benchmark::DoNotOptimize(product);
  }
}
BENCHMARK(BM_Numeric_BigMulDiv)->Arg(40)->Arg(600);

// The counter-shaped workload: alternating weight products and branch
// sums over fractions with overlapping factors — the pattern
// DpllCounter's BranchOnComponent/CountComponents accumulate, here
// without clearing denominators first.
std::vector<BigRational> CounterTerms() {
  std::vector<BigRational> terms;
  for (std::int64_t k = 1; k <= 64; ++k) {
    terms.push_back(BigRational::Fraction(2 * k + 1, k + 1));
    terms.push_back(BigRational::Fraction(-k, 2 * k + 3));
  }
  return terms;
}

void BM_Numeric_RationalEager(benchmark::State& state) {
  std::vector<BigRational> terms = CounterTerms();
  for (auto _ : state) {
    BigRational total(0);
    BigRational product(1);
    for (std::size_t i = 0; i < terms.size(); ++i) {
      product *= terms[i];
      if (i % 4 == 3) {
        total += product;
        product = BigRational(1);
      }
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_Numeric_RationalEager);

// The reduction that ends every γ-acyclic point: weights 2/3 and 1/7
// scale to a = 14 and b = 3 over D = 21, ∃x R(x) over n tuples counts
// t^n − b^n with t = a + b, and the answer divides it by D^n.
// range(0) = bits of D^n.
void BM_Numeric_Gcd(benchmark::State& state) {
  auto tuples = static_cast<std::uint64_t>(
      static_cast<double>(state.range(0)) / std::log2(21.0));
  BigInt count =
      BigInt::Pow(BigInt(17), tuples) - BigInt::Pow(BigInt(3), tuples);
  BigInt denominator = BigInt::Pow(BigInt(21), tuples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::Gcd(count, denominator));
  }
}
BENCHMARK(BM_Numeric_Gcd)->Arg(1024)->Arg(4096)->Arg(16384);

// Consecutive Fibonacci numbers of about 3,500 bits: the longest
// remainder sequence for their size, and every quotient is 1.
void BM_Numeric_GcdFibonacci(benchmark::State& state) {
  BigInt previous(0), current(1);
  while (current.BitLength() < 3500) {
    BigInt next = previous + current;
    previous = std::move(current);
    current = std::move(next);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::Gcd(current, previous));
  }
}
BENCHMARK(BM_Numeric_GcdFibonacci);

}  // namespace

BENCHMARK_MAIN();
