#include "numeric/combinatorics.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace swfomc::numeric {
namespace {

TEST(FactorialTest, SmallValues) {
  EXPECT_EQ(Factorial(0).ToInt64(), 1);
  EXPECT_EQ(Factorial(1).ToInt64(), 1);
  EXPECT_EQ(Factorial(5).ToInt64(), 120);
  EXPECT_EQ(Factorial(12).ToInt64(), 479001600);
}

TEST(FactorialTest, LargeValue) {
  EXPECT_EQ(Factorial(25).ToString(), "15511210043330985984000000");
}

TEST(BinomialTest, PascalIdentity) {
  for (std::uint64_t n = 1; n <= 20; ++n) {
    for (std::uint64_t k = 1; k <= n; ++k) {
      EXPECT_EQ(Binomial(n, k), Binomial(n - 1, k - 1) + Binomial(n - 1, k));
    }
  }
}

TEST(BinomialTest, Boundaries) {
  EXPECT_EQ(Binomial(10, 0).ToInt64(), 1);
  EXPECT_EQ(Binomial(10, 10).ToInt64(), 1);
  EXPECT_EQ(Binomial(10, 11).ToInt64(), 0);
  EXPECT_EQ(Binomial(0, 0).ToInt64(), 1);
  EXPECT_EQ(Binomial(52, 5).ToInt64(), 2598960);
}

TEST(BinomialTest, RowSumsArePowersOfTwo) {
  for (std::uint64_t n = 0; n <= 16; ++n) {
    BigInt sum(0);
    for (std::uint64_t k = 0; k <= n; ++k) sum += Binomial(n, k);
    EXPECT_EQ(sum, BigInt::Pow(BigInt(2), n));
  }
}

TEST(MultinomialTest, MatchesFactorialFormula) {
  // 7! / (2! 2! 3!) = 210.
  EXPECT_EQ(Multinomial(7, {2, 2, 3}).ToInt64(), 210);
  EXPECT_EQ(Multinomial(5, {5}).ToInt64(), 1);
  EXPECT_EQ(Multinomial(4, {1, 1, 1, 1}).ToInt64(), 24);
  EXPECT_EQ(Multinomial(0, {0, 0}).ToInt64(), 1);
}

TEST(MultinomialTest, MismatchedPartsThrow) {
  EXPECT_THROW(Multinomial(5, {2, 2}), std::invalid_argument);
}

TEST(CompositionTest, EnumeratesAllWeakCompositions) {
  std::vector<std::vector<std::uint64_t>> seen;
  ForEachComposition(3, 2, [&](const std::vector<std::uint64_t>& c) {
    seen.push_back(c);
    return true;
  });
  std::vector<std::vector<std::uint64_t>> expected = {
      {0, 3}, {1, 2}, {2, 1}, {3, 0}};
  EXPECT_EQ(seen, expected);
}

TEST(CompositionTest, CountMatchesEnumeration) {
  for (std::uint64_t total = 0; total <= 6; ++total) {
    for (std::size_t parts = 1; parts <= 4; ++parts) {
      std::uint64_t count = 0;
      ForEachComposition(total, parts,
                         [&](const std::vector<std::uint64_t>&) {
                           ++count;
                           return true;
                         });
      EXPECT_EQ(BigInt::FromUnsigned(count), CompositionCount(total, parts))
          << total << " into " << parts;
    }
  }
}

TEST(CompositionTest, EachCompositionSumsToTotal) {
  ForEachComposition(5, 3, [](const std::vector<std::uint64_t>& c) {
    std::uint64_t sum = 0;
    for (std::uint64_t v : c) sum += v;
    EXPECT_EQ(sum, 5u);
    return true;
  });
}

TEST(CompositionTest, EarlyAbort) {
  std::uint64_t count = 0;
  ForEachComposition(4, 3, [&](const std::vector<std::uint64_t>&) {
    ++count;
    return count < 3;
  });
  EXPECT_EQ(count, 3u);
}

TEST(FactorialTableTest, MatchesFactorial) {
  FactorialTable table;
  // Out-of-order access exercises the incremental growth.
  EXPECT_EQ(table.Get(5), Factorial(5));
  EXPECT_EQ(table.Get(0), BigInt(1));
  EXPECT_EQ(table.Get(20), Factorial(20));
  EXPECT_EQ(table.Get(12), Factorial(12));
  // Repeated access returns the identical cached value, and references
  // stay valid while the table grows.
  EXPECT_EQ(&table.Get(12), &table.Get(12));
  const BigInt& twelve = table.Get(12);
  table.Get(64);
  EXPECT_EQ(twelve, Factorial(12));
}

TEST(BinomialTableTest, MatchesBinomial) {
  BinomialTable table;
  for (std::uint64_t n = 0; n <= 16; ++n) {
    for (std::uint64_t k = 0; k <= n + 2; ++k) {
      EXPECT_EQ(table.Get(n, k), Binomial(n, k)) << n << " choose " << k;
    }
  }
  // Access far above previously built rows.
  EXPECT_EQ(table.Get(40, 20), Binomial(40, 20));
}

TEST(CompositionTest, ZeroParts) {
  std::uint64_t calls = 0;
  ForEachComposition(0, 0, [&](const std::vector<std::uint64_t>& c) {
    EXPECT_TRUE(c.empty());
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 1u);
  calls = 0;
  ForEachComposition(2, 0, [&](const std::vector<std::uint64_t>&) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0u);
}

TEST(TupleCountTest, CheckedPower) {
  EXPECT_EQ(TupleCount(0, 0), 1u);  // a 0-ary relation has one tuple
  EXPECT_EQ(TupleCount(0, 3), 0u);
  EXPECT_EQ(TupleCount(1, 5'000'000'000), 1u);
  EXPECT_EQ(TupleCount(3, 4), 81u);
  EXPECT_EQ(TupleCount(2, 63), std::uint64_t{1} << 63);
  EXPECT_EQ(TupleCount(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_THROW(TupleCount(2, 64), std::invalid_argument);
  EXPECT_THROW(TupleCount(2, 5'000'000'000), std::invalid_argument);
  EXPECT_THROW(TupleCount(std::uint64_t{1} << 32, 2), std::invalid_argument);
}

}  // namespace
}  // namespace swfomc::numeric
