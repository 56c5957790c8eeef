#include "references.h"

#include <bit>
#include <stdexcept>
#include <string>

namespace swbench {

namespace {

using numeric::BigInt;
using numeric::BigRational;

// p^0 .. p^count.
std::vector<BigRational> Powers(const BigRational& p, int count) {
  std::vector<BigRational> powers;
  powers.reserve(static_cast<std::size_t>(count) + 1);
  powers.emplace_back(1);
  for (int i = 1; i <= count; ++i) powers.push_back(powers.back() * p);
  return powers;
}

BigInt Binomial(int n, int k) {
  BigInt value(1);
  for (int i = 1; i <= k; ++i) {
    value = value * BigInt(n - k + i) / BigInt(i);
  }
  return value;
}

}  // namespace

ClosedWalkTable::ClosedWalkTable(int n, int length) : tuples_(n * n) {
  if (n < 1 || n > 5) {
    throw std::invalid_argument("ClosedWalkTable: n must be in [1, 5]");
  }
  // A true loop R(a,a) is a closed walk of every length, so only loop-free
  // structures can falsify the query: enumerate those, count the ones
  // without a closed walk of `length`, and subtract from C(n², k).
  std::vector<std::pair<int, int>> arcs;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a != b) arcs.emplace_back(a, b);
    }
  }
  std::vector<std::uint64_t> unsat(static_cast<std::size_t>(tuples_) + 1, 0);
  const std::uint32_t masks = std::uint32_t{1} << arcs.size();
  for (std::uint32_t mask = 0; mask < masks; ++mask) {
    std::uint32_t succ[5] = {0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      if ((mask >> i) & 1u) succ[arcs[i].first] |= 1u << arcs[i].second;
    }
    bool found = false;
    for (int start = 0; start < n && !found; ++start) {
      std::uint32_t frontier = 1u << start;
      for (int step = 0; step < length; ++step) {
        std::uint32_t next = 0;
        for (int v = 0; v < n; ++v) {
          if ((frontier >> v) & 1u) next |= succ[v];
        }
        frontier = next;
      }
      found = ((frontier >> start) & 1u) != 0;
    }
    if (!found) ++unsat[static_cast<std::size_t>(std::popcount(mask))];
  }
  sat_.reserve(unsat.size());
  for (int k = 0; k <= tuples_; ++k) {
    sat_.push_back(Binomial(tuples_, k) -
                   BigInt(static_cast<std::int64_t>(unsat[k])));
  }
}

BigRational ClosedWalkTable::WFOMC(const BigRational& w,
                                   const BigRational& wbar) const {
  std::vector<BigRational> wp = Powers(w, tuples_);
  std::vector<BigRational> wbp = Powers(wbar, tuples_);
  BigRational total(0);
  for (int k = 0; k <= tuples_; ++k) {
    if (sat_[k].IsZero()) continue;
    total += BigRational(sat_[k]) * wp[k] * wbp[tuples_ - k];
  }
  return total;
}

BigInt ClosedWalkTable::FOMC() const {
  BigInt total(0);
  for (const BigInt& count : sat_) total += count;
  return total;
}

TypedTriangleTable::TypedTriangleTable(int n) : tuples_(n * n) {
  if (n < 1 || n > 3) {
    throw std::invalid_argument("TypedTriangleTable: n must be in [1, 3]");
  }
  const std::size_t side = static_cast<std::size_t>(tuples_) + 1;
  counts_.assign(side * side * side, 0);
  const std::uint32_t masks = std::uint32_t{1} << tuples_;
  // Tuple (a, b) is bit a * n + b; row a of a mask is its successor set.
  auto row = [n](std::uint32_t mask, int a) {
    return (mask >> (a * n)) & ((1u << n) - 1);
  };
  for (std::uint32_t r = 0; r < masks; ++r) {
    for (std::uint32_t s = 0; s < masks; ++s) {
      // T(z,x) is forbidden when some y has R(x,y) and S(y,z).
      int forbidden = 0;
      for (int x = 0; x < n; ++x) {
        std::uint32_t ys = row(r, x);
        std::uint32_t zs = 0;
        for (int y = 0; y < n; ++y) {
          if ((ys >> y) & 1u) zs |= row(s, y);
        }
        forbidden += std::popcount(zs);
      }
      ++counts_[(static_cast<std::size_t>(std::popcount(r)) * side +
                 static_cast<std::size_t>(std::popcount(s))) *
                    side +
                static_cast<std::size_t>(forbidden)];
    }
  }
}

BigRational TypedTriangleTable::WFOMC(
    const BigRational& wr, const BigRational& wbar_r, const BigRational& ws,
    const BigRational& wbar_s, const BigRational& wt,
    const BigRational& wbar_t) const {
  const int t = tuples_;
  const std::size_t side = static_cast<std::size_t>(t) + 1;
  std::vector<BigRational> wrp = Powers(wr, t), wbrp = Powers(wbar_r, t);
  std::vector<BigRational> wsp = Powers(ws, t), wbsp = Powers(wbar_s, t);
  std::vector<BigRational> wbtp = Powers(wbar_t, t);
  std::vector<BigRational> totp = Powers(wt + wbar_t, t);
  BigRational unsat(0);
  for (int kr = 0; kr <= t; ++kr) {
    for (int ks = 0; ks <= t; ++ks) {
      BigRational rs = wrp[kr] * wbrp[t - kr] * wsp[ks] * wbsp[t - ks];
      for (int f = 0; f <= t; ++f) {
        std::uint64_t count = counts_[(kr * side + ks) * side + f];
        if (count == 0) continue;
        unsat += BigRational(BigInt(static_cast<std::int64_t>(count))) * rs *
                 wbtp[f] * totp[t - f];
      }
    }
  }
  BigRational all = BigRational::Pow(wr + wbar_r, t) *
                    BigRational::Pow(ws + wbar_s, t) *
                    BigRational::Pow(wt + wbar_t, t);
  return all - unsat;
}

BigInt TypedTriangleTable::FOMC() const {
  return WFOMC(1, 1, 1, 1, 1, 1).ToInteger();
}

void ReferenceTables::AddClosedWalk(int n, int length) {
  if (!walks_.contains({n, length})) {
    walks_.emplace(std::make_pair(n, length), ClosedWalkTable(n, length));
  }
}

void ReferenceTables::AddTypedTriangle(int n) {
  if (!typed_.contains(n)) typed_.emplace(n, TypedTriangleTable(n));
}

bool ReferenceTables::PinnedTotalsHold() const {
  for (const auto& [key, table] : walks_) {
    BigInt pinned = key.second == 3 ? PinnedTriangleFOMC(key.first)
                                    : PinnedFourCycleFOMC(key.first);
    if (table.FOMC() != pinned) return false;
  }
  for (const auto& [n, table] : typed_) {
    if (table.FOMC() != PinnedTypedTriangleFOMC(n)) return false;
  }
  return true;
}

BigRational SymmetricWFOMC(int n, const BigRational& w,
                           const BigRational& wbar) {
  return BigRational::Pow(w + wbar, n) *
         BigRational::Pow(w * w + wbar * wbar, n * (n - 1) / 2);
}

BigRational SmokersWFOMC(int n, const BigRational& ws,
                         const BigRational& wbar_s, const BigRational& wf,
                         const BigRational& wbar_f) {
  BigRational total(0);
  for (int k = 0; k <= n; ++k) {
    int cut = k * (n - k);
    total += BigRational(Binomial(n, k)) * BigRational::Pow(ws, k) *
             BigRational::Pow(wbar_s, n - k) * BigRational::Pow(wbar_f, cut) *
             BigRational::Pow(wf + wbar_f, n * n - cut);
  }
  return total;
}

BigRational MutualWFOMC(int n, const BigRational& w, const BigRational& wbar) {
  const BigRational t = w + wbar;
  const BigRational unpaired = t * t - w * w;
  BigRational total(0);
  for (int j = 0; j <= n; ++j) {
    const int m = n - j;
    BigRational term = BigRational(Binomial(n, j)) * BigRational::Pow(wbar, j) *
                       BigRational::Pow(unpaired, j * (j - 1) / 2 + j * m) *
                       BigRational::Pow(t, m * m);
    if (j % 2 == 0) {
      total += term;
    } else {
      total -= term;
    }
  }
  return total;
}

BigRational CoveredWFOMC(int n, const BigRational& wu,
                         const BigRational& wbar_u, const BigRational& wr,
                         const BigRational& wbar_r) {
  const BigRational row = BigRational::Pow(wr + wbar_r, n);
  return BigRational::Pow(
      wu * row + wbar_u * (row - BigRational::Pow(wbar_r, n)), n);
}

// Pinned once by swbench/pin_references.py, a brute-force enumeration
// sharing no code with this file or with swfomc.
BigInt PinnedTriangleFOMC(int n) {
  switch (n) {
    case 1: return BigInt(1);
    case 2: return BigInt(12);
    case 3: return BigInt(463);
    case 4: return BigInt(63837);
    case 5: return BigInt(33397900);
  }
  throw std::invalid_argument("no pinned triangle FOMC for n=" +
                              std::to_string(n));
}

BigInt PinnedFourCycleFOMC(int n) {
  switch (n) {
    case 1: return BigInt(1);
    case 2: return BigInt(13);
    case 3: return BigInt(485);
    case 4: return BigInt(64861);
  }
  throw std::invalid_argument("no pinned 4-cycle FOMC for n=" +
                              std::to_string(n));
}

BigInt PinnedTypedTriangleFOMC(int n) {
  switch (n) {
    case 1: return BigInt(1);
    case 2: return BigInt(2397);
    case 3: return BigInt(123870295);
  }
  throw std::invalid_argument("no pinned typed-triangle FOMC for n=" +
                              std::to_string(n));
}

}  // namespace swbench
