#ifndef SWFOMC_NUMERIC_COMBINATORICS_H_
#define SWFOMC_NUMERIC_COMBINATORICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "numeric/bigint.h"
#include "numeric/rational.h"

namespace swfomc::numeric {

/// n! as a BigInt. Served from a shared thread-local FactorialTable, so
/// repeated calls (e.g. unlabeled-count divisions across domain sizes)
/// cost one multiplication per previously unseen n.
BigInt Factorial(std::uint64_t n);

/// Binomial coefficient C(n, k); 0 when k > n.
BigInt Binomial(std::uint64_t n, std::uint64_t k);

/// Multinomial coefficient n! / (parts[0]! * ... * parts[m-1]!).
/// Requires sum(parts) == n (checked).
BigInt Multinomial(std::uint64_t n, const std::vector<std::uint64_t>& parts);

/// Enumerates all weak compositions of `total` into `parts` non-negative
/// summands, invoking `visit` with each composition — the plain form of
/// the Appendix C sum over cell cardinalities n_1+...+n_{2^m}=n, kept as
/// the reference the FO² tests check the cell algorithm against.
/// `visit` returning false aborts the enumeration.
void ForEachComposition(
    std::uint64_t total, std::size_t parts,
    const std::function<bool(const std::vector<std::uint64_t>&)>& visit);

/// Number of weak compositions of `total` into `parts` summands:
/// C(total + parts - 1, parts - 1).
BigInt CompositionCount(std::uint64_t total, std::size_t parts);

/// n^arity: the ground tuples of an arity-`arity` relation on an
/// n-element domain, with 0^0 = 1 (a 0-ary relation has one tuple even at
/// n = 0). The one n^arity loop: every tuple layout (grounding::TupleIndex,
/// logic::Structure) and every n^k count sizes through it. Throws
/// std::invalid_argument("... too many ground tuples") once the product
/// passes 2^64 - 1, after at most 64 multiplies.
std::uint64_t TupleCount(std::uint64_t domain_size, std::size_t arity);

/// Per-relation weight pairs (w_i, w̄_i), indexed by relation id.
using WeightPairs = std::vector<std::pair<BigRational, BigRational>>;

/// T(n) = Π_i (w_i + w̄_i)^(n^arity_i) over the relations i <
/// arities.size(): the total weight of every structure on an n-element
/// domain, WFOMC(true, n). Every structure satisfies exactly one of Φ and
/// ¬Φ, so WFOMC(Φ, n) + WFOMC(¬Φ, n) = T(n) for every sentence Φ. T is
/// exact and may be zero or negative. `weights` needs at least
/// arities.size() entries; later ones (the auxiliary predicates of an
/// extended vocabulary) are ignored.
BigRational TotalWeight(std::uint64_t domain_size,
                        const std::vector<std::size_t>& arities,
                        const WeightPairs& weights);

/// Memoized factorial table: Get(n) extends the cache one multiplication
/// at a time, so a sequence of calls costs one BigInt multiply per new n
/// instead of O(n) each. Deque storage keeps returned references valid
/// across later growth. Backs the free Factorial().
class FactorialTable {
 public:
  const BigInt& Get(std::uint64_t n);

 private:
  std::deque<BigInt> values_;
};

/// Memoized binomial coefficients via cached Pascal rows: row n is built
/// once from row n-1 (n additions) and every later Get(n, k) is a table
/// lookup. Use one table per algorithm invocation wherever C(n, k) is
/// recomputed inside loops (the FO² composition sum, closed forms, the
/// chain-query and QS4 recurrences).
class BinomialTable {
 public:
  /// C(n, k); a shared zero when k > n.
  const BigInt& Get(std::uint64_t n, std::uint64_t k);

 private:
  std::vector<std::vector<BigInt>> rows_;
};

}  // namespace swfomc::numeric

#endif  // SWFOMC_NUMERIC_COMBINATORICS_H_
