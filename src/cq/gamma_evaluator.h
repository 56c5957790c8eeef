#ifndef SWFOMC_CQ_GAMMA_EVALUATOR_H_
#define SWFOMC_CQ_GAMMA_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cq/conjunctive_query.h"
#include "numeric/bigint.h"
#include "numeric/rational.h"

namespace swfomc::cq {

/// Theorem 3.6: the weighted count of a γ-acyclic conjunctive query
/// without self-joins, in time polynomial in the domain sizes. Implements
/// the paper's five reduction rules in weight space over integers, in the
/// generalized semantics where each variable x_i ranges over its own
/// domain [n_i]. Each atom carries the integer pair (a, t): the weight of
/// one present grounding and the total weight of one grounding, so an
/// absent grounding weighs b = t − a. Count(Q) sums, over the worlds of
/// the atoms' groundings that satisfy Q, the product of their weights:
///
///   (a) isolated node x in atom R: delete x; (a, t) ← (t^{n_x} − b^{n_x},
///       t^{n_x}), since the merged grounding is present iff one of its
///       n_x groundings is;
///   (b) singleton atom R(x): Count = Σ_k C(n_x,k) a^k b^{n_x−k}
///       T^{n_x−k} Count_k, where Count_k is the residual query with x
///       restricted to [k] (memoized — the recursion is what makes rule
///       (b) polynomial) and T = Π t_A^{Π_{v ∈ A∖x} n_v} over the other
///       atoms A containing x: their tuples whose x lies outside the
///       chosen k values can never join a witness, so they count at their
///       total weight;
///   (c) empty atom R(): multiply the residual by a_R;
///   (d) two atoms over the same variable set: merge, (a, t) ←
///       (a_R a_S, t_R t_S);
///   (e) edge-equivalent variables x, y: merge into z, n_z = n_x * n_y.
///
/// No rule divides, so the recursion runs in BigInt arithmetic with no
/// gcd. Each public call builds one BigRational at the end: the count
/// divided once by the scale of its integer weights (Π t^{groundings}
/// for Pr(Q), Π D_R^{tuples} for WFOMC).
///
/// Throws std::invalid_argument when the query is not γ-acyclic (the rules
/// get stuck) — check IsGammaAcyclic first.
class GammaEvaluator {
 public:
  struct Stats {
    std::uint64_t rule_applications = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_entries = 0;
  };

  /// Pr(Q) with per-variable domain sizes: the count with (a, t) =
  /// (numerator, denominator) of each relation's probability, divided by
  /// Π t^{groundings}.
  numeric::BigRational Probability(
      const ConjunctiveQuery& query,
      const std::map<std::string, numeric::BigInt>& domain_sizes);

  /// Standard semantics: every variable ranges over [n].
  numeric::BigRational Probability(const ConjunctiveQuery& query,
                                   std::uint64_t domain_size);

  const Stats& stats() const { return stats_; }

 private:
  friend numeric::BigRational GammaAcyclicWFOMC(
      const ConjunctiveQuery& query, std::uint64_t domain_size,
      const std::map<std::string,
                     std::pair<numeric::BigRational, numeric::BigRational>>&
          weights);

  // One atom of a residual query: its distinct variables, sorted, and the
  // integer weights of one of its groundings.
  struct Atom {
    std::vector<int> vars;
    numeric::BigInt present;  // a
    numeric::BigInt total;    // t = a + b

    friend bool operator<(const Atom& x, const Atom& y) {
      return std::tie(x.vars, x.present, x.total) <
             std::tie(y.vars, y.present, y.total);
    }
  };

  // A residual query and the memo's key, compared by value: its atoms,
  // sorted, and the domain size of every variable that occurs in them,
  // sorted by variable.
  struct State {
    std::vector<Atom> atoms;
    std::vector<std::pair<int, numeric::BigInt>> domains;

    friend bool operator<(const State& x, const State& y) {
      return std::tie(x.atoms, x.domains) < std::tie(y.atoms, y.domains);
    }
  };

  // `query` as a State, each relation's groundings weighted
  // (a, t) = weights.at(relation); `groundings` receives, per query atom,
  // the number of groundings of its distinct variables.
  static State MakeState(
      const ConjunctiveQuery& query,
      const std::map<std::string,
                     std::pair<numeric::BigInt, numeric::BigInt>>& weights,
      const std::map<std::string, numeric::BigInt>& domain_sizes,
      std::vector<numeric::BigInt>* groundings);

  numeric::BigInt Count(State state);
  numeric::BigInt CountUncached(State state);

  Stats stats_;
  std::map<State, numeric::BigInt> memo_;
};

/// One-shot convenience (standard semantics).
numeric::BigRational GammaAcyclicProbability(const ConjunctiveQuery& query,
                                             std::uint64_t domain_size);

/// Symmetric WFOMC of a γ-acyclic CQ from per-relation weights (w, w̄),
/// any rationals. Counts with each relation's weights scaled to integers
/// (a, t) = (w·D_R, (w + w̄)·D_R), D_R = lcm(den w, den w̄), multiplies by
/// t^{tuples − groundings} for the tuples an atom with a repeated
/// variable never touches, and divides once by Π D_R^{tuples}.
numeric::BigRational GammaAcyclicWFOMC(
    const ConjunctiveQuery& query, std::uint64_t domain_size,
    const std::map<std::string,
                   std::pair<numeric::BigRational, numeric::BigRational>>&
        weights);

}  // namespace swfomc::cq

#endif  // SWFOMC_CQ_GAMMA_EVALUATOR_H_
