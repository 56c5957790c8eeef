// Reference answers that do not come from the code paths being timed.
//
// The FO³ conjunctive queries the grounded workloads count have no lifted
// algorithm, so their references come from plain enumeration written
// here, against no library code: the structures over the query's
// relations are enumerated once per domain size, tabulated by how many
// tuples of each relation are true, and every weighted count is then a
// polynomial in the weights read off that table. The unweighted totals
// at the largest sizes are pinned constants, so the enumerators are
// themselves checked against numbers computed once, independently.
//
// The liftable FO² sentences the serve workloads send get closed forms,
// also written here, so that no reference shares the lifted compiler's
// or the cell algorithm's code.
#ifndef SWBENCH_REFERENCES_H_
#define SWBENCH_REFERENCES_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "aliases.h"
#include "numeric/bigint.h"
#include "numeric/rational.h"

namespace swbench {

/// WFOMC of "some closed walk of length L exists" over one binary
/// relation R on [n] — the untyped triangle (L = 3) and 4-cycle (L = 4)
/// queries ∃x1..xL R(x1,x2) ∧ .. ∧ R(xL,x1). Holds sat[k], the number of
/// structures with exactly k true tuples that satisfy the query.
class ClosedWalkTable {
 public:
  ClosedWalkTable(int n, int length);

  numeric::BigRational WFOMC(const numeric::BigRational& w,
                             const numeric::BigRational& wbar) const;
  numeric::BigInt FOMC() const;

 private:
  int tuples_ = 0;
  std::vector<numeric::BigInt> sat_;
};

/// WFOMC of the typed triangle ∃x∃y∃z R(x,y) ∧ S(y,z) ∧ T(z,x) on [n]:
/// for every (R, S) pair the T-tuples that would close a triangle are
/// forbidden, so the non-satisfying mass of T is w̄_T^f (w_T + w̄_T)^(n²-f)
/// for f forbidden tuples. Holds the count of (R, S) pairs per
/// (|R|, |S|, f).
class TypedTriangleTable {
 public:
  explicit TypedTriangleTable(int n);

  numeric::BigRational WFOMC(const numeric::BigRational& wr,
                             const numeric::BigRational& wbar_r,
                             const numeric::BigRational& ws,
                             const numeric::BigRational& wbar_s,
                             const numeric::BigRational& wt,
                             const numeric::BigRational& wbar_t) const;
  numeric::BigInt FOMC() const;

 private:
  int tuples_ = 0;
  // counts_[(kr * (tuples_ + 1) + ks) * (tuples_ + 1) + f]
  std::vector<std::uint64_t> counts_;
};

/// The tables a workload's references are read from, one per query and
/// domain size.
class ReferenceTables {
 public:
  void AddClosedWalk(int n, int length);
  void AddTypedTriangle(int n);
  const ClosedWalkTable& closed_walk(int n, int length) const {
    return walks_.at({n, length});
  }
  const TypedTriangleTable& typed_triangle(int n) const { return typed_.at(n); }
  /// True when every table reproduces its pinned unweighted total.
  bool PinnedTotalsHold() const;

 private:
  std::map<std::pair<int, int>, ClosedWalkTable> walks_;
  std::map<int, TypedTriangleTable> typed_;
};

/// ∀x∀y (R(x,y) ⇒ R(y,x)) on [n]: loops are free and each pair {a, b}
/// has both tuples or neither, so T^n (w² + w̄²)^C(n,2) with T = w + w̄.
numeric::BigRational SymmetricWFOMC(int n, const numeric::BigRational& w,
                                    const numeric::BigRational& wbar);

/// ∀x∀y ((Sm(x) ∧ F(x,y)) ⇒ Sm(y)) on [n]: with k smokers, the k(n-k)
/// F-tuples from a smoker to a non-smoker are false and the rest free:
/// Σ_k C(n,k) w_Sm^k w̄_Sm^(n-k) w̄_F^(k(n-k)) (w_F + w̄_F)^(n²-k(n-k)).
numeric::BigRational SmokersWFOMC(int n, const numeric::BigRational& ws,
                                  const numeric::BigRational& wbar_s,
                                  const numeric::BigRational& wf,
                                  const numeric::BigRational& wbar_f);

/// ∀x∃y (R(x,y) ∧ R(y,x)) on [n]: every element needs a true loop or a
/// pair with both tuples true. Inclusion–exclusion over the set J of
/// elements that have neither (|J| = j, m = n - j, T = w + w̄):
/// Σ_j (-1)^j C(n,j) w̄^j (T² - w²)^(C(j,2) + jm) T^(m²).
numeric::BigRational MutualWFOMC(int n, const numeric::BigRational& w,
                                 const numeric::BigRational& wbar);

/// ∀x∃y (R(x,y) ∨ U(x)) on [n]: elements are independent, each in U or
/// with some true R-tuple out of it:
/// (w_U T_R^n + w̄_U (T_R^n - w̄_R^n))^n with T_R = w_R + w̄_R.
numeric::BigRational CoveredWFOMC(int n, const numeric::BigRational& wu,
                                  const numeric::BigRational& wbar_u,
                                  const numeric::BigRational& wr,
                                  const numeric::BigRational& wbar_r);

/// Unweighted totals pinned once (see references.cpp for provenance);
/// the enumerators must reproduce them before any answer is checked.
numeric::BigInt PinnedTriangleFOMC(int n);
numeric::BigInt PinnedFourCycleFOMC(int n);
numeric::BigInt PinnedTypedTriangleFOMC(int n);

}  // namespace swbench

#endif  // SWBENCH_REFERENCES_H_
