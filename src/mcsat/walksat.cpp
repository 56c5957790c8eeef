#include "mcsat/walksat.h"

#include <algorithm>
#include <cmath>

namespace swfomc::mcsat {

namespace {

using prop::Clause;
using prop::Lit;
using prop::LitPositive;
using prop::LitVariable;
using prop::VarId;

bool ClauseSatisfied(const Clause& clause, const std::vector<bool>& assignment) {
  for (Lit l : clause) {
    if (assignment[LitVariable(l)] == LitPositive(l)) return true;
  }
  return false;
}

}  // namespace

WalkSat::WalkSat(prop::CnfFormula cnf, Options options, std::uint64_t seed)
    : cnf_(std::move(cnf)), options_(options), rng_(seed) {
  occurrences_.resize(cnf_.variable_count);
  for (std::size_t i = 0; i < cnf_.clauses.size(); ++i) {
    for (Lit l : cnf_.clauses[i]) {
      occurrences_[LitVariable(l)].push_back(i);
    }
  }
}

std::uint64_t WalkSat::BreakCount(const std::vector<bool>& assignment,
                                  VarId variable) const {
  // Clauses currently satisfied *only* by `variable`'s literal become
  // broken if it flips.
  std::uint64_t broken = 0;
  for (std::size_t index : occurrences_[variable]) {
    const Clause& clause = cnf_.clauses[index];
    bool this_satisfies = false;
    bool other_satisfies = false;
    for (Lit l : clause) {
      if (assignment[LitVariable(l)] == LitPositive(l)) {
        if (LitVariable(l) == variable) {
          this_satisfies = true;
        } else {
          other_satisfies = true;
          break;
        }
      }
    }
    if (this_satisfies && !other_satisfies) ++broken;
  }
  return broken;
}

std::optional<std::vector<bool>> WalkSat::Run(double sa_probability,
                                              double temperature) {
  std::vector<bool> assignment(cnf_.variable_count);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::uint32_t v = 0; v < cnf_.variable_count; ++v) {
    assignment[v] = rng_() & 1;
  }

  for (std::uint64_t flip = 0; flip < options_.max_flips; ++flip) {
    // Collect unsatisfied clauses.
    std::vector<std::size_t> unsatisfied;
    for (std::size_t i = 0; i < cnf_.clauses.size(); ++i) {
      if (!ClauseSatisfied(cnf_.clauses[i], assignment)) {
        unsatisfied.push_back(i);
      }
    }
    if (unsatisfied.empty()) return assignment;

    if (sa_probability > 0.0 && coin(rng_) < sa_probability) {
      // Simulated-annealing move: flip a uniformly random variable,
      // accept with the Metropolis rule on the unsatisfied-clause count.
      VarId v = static_cast<VarId>(rng_() % cnf_.variable_count);
      std::int64_t delta = 0;  // change in #unsatisfied if v flips
      for (std::size_t index : occurrences_[v]) {
        const Clause& clause = cnf_.clauses[index];
        bool now = ClauseSatisfied(clause, assignment);
        assignment[v] = !assignment[v];
        bool then = ClauseSatisfied(clause, assignment);
        assignment[v] = !assignment[v];
        delta += static_cast<std::int64_t>(!then) -
                 static_cast<std::int64_t>(!now);
      }
      if (delta <= 0 || coin(rng_) < std::exp(-static_cast<double>(delta) /
                                              temperature)) {
        assignment[v] = !assignment[v];
      }
      continue;
    }

    // WalkSAT move: pick a random unsatisfied clause; flip either a
    // random variable in it (noise) or the min-break variable (greedy).
    const Clause& clause =
        cnf_.clauses[unsatisfied[rng_() % unsatisfied.size()]];
    VarId chosen;
    if (coin(rng_) < options_.noise) {
      chosen = LitVariable(clause[rng_() % clause.size()]);
    } else {
      chosen = LitVariable(clause[0]);
      std::uint64_t best = BreakCount(assignment, chosen);
      for (Lit l : clause) {
        std::uint64_t breaks = BreakCount(assignment, LitVariable(l));
        if (breaks < best) {
          best = breaks;
          chosen = LitVariable(l);
        }
      }
    }
    assignment[chosen] = !assignment[chosen];
  }
  return std::nullopt;
}

std::optional<std::vector<bool>> WalkSat::Solve() {
  for (std::uint64_t attempt = 0; attempt < options_.max_tries; ++attempt) {
    auto result = Run(/*sa_probability=*/0.0, /*temperature=*/1.0);
    if (result.has_value()) return result;
  }
  return std::nullopt;
}

std::optional<std::vector<bool>> WalkSat::Sample(double sa_probability,
                                                 double temperature) {
  for (std::uint64_t attempt = 0; attempt < options_.max_tries; ++attempt) {
    auto result = Run(sa_probability, temperature);
    if (result.has_value()) return result;
  }
  return std::nullopt;
}

}  // namespace swfomc::mcsat
