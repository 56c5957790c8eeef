#include "cq/gamma_evaluator.h"

#include <algorithm>
#include <stdexcept>

#include "numeric/combinatorics.h"

namespace swfomc::cq {

namespace {

using numeric::BigInt;
using numeric::BigRational;

constexpr std::uint64_t kMaxConditioningDomain = 1u << 20;

// BigInt power with a sanity bound (exponents are grounding counts,
// polynomial in the domain sizes).
BigInt PowBig(const BigInt& base, const BigInt& exponent) {
  if (exponent.IsNegative()) {
    throw std::domain_error("GammaEvaluator: negative exponent");
  }
  if (!exponent.FitsInt64()) {
    throw std::invalid_argument("GammaEvaluator: exponent too large");
  }
  return BigInt::Pow(base, static_cast<std::uint64_t>(exponent.ToInt64()));
}

bool Contains(const std::vector<int>& vars, int v) {
  return std::binary_search(vars.begin(), vars.end(), v);
}

using Domains = std::vector<std::pair<int, BigInt>>;

Domains::iterator FindDomain(Domains& domains, int v) {
  return std::find_if(domains.begin(), domains.end(),
                      [v](const auto& entry) { return entry.first == v; });
}

}  // namespace

GammaEvaluator::State GammaEvaluator::MakeState(
    const ConjunctiveQuery& query,
    const std::map<std::string, std::pair<BigInt, BigInt>>& weights,
    const std::map<std::string, BigInt>& domain_sizes,
    std::vector<BigInt>* groundings) {
  State state;
  std::map<std::string, int> ids;
  std::map<int, BigInt> domains;
  for (const ConjunctiveQuery::QueryAtom& atom : query.atoms()) {
    const auto& [present, total] = weights.at(atom.relation);
    Atom state_atom{.vars = {}, .present = present, .total = total};
    for (const std::string& v : atom.variables) {
      auto [it, inserted] = ids.emplace(v, static_cast<int>(ids.size()));
      state_atom.vars.push_back(it->second);
      auto domain = domain_sizes.find(v);
      if (domain == domain_sizes.end()) {
        throw std::invalid_argument(
            "GammaEvaluator: missing domain size for variable " + v);
      }
      domains[it->second] = domain->second;
    }
    // A repeated variable ranges once: R(x,x) is a relation over x.
    std::sort(state_atom.vars.begin(), state_atom.vars.end());
    state_atom.vars.erase(
        std::unique(state_atom.vars.begin(), state_atom.vars.end()),
        state_atom.vars.end());
    BigInt count(1);
    for (int v : state_atom.vars) count *= domains.at(v);
    groundings->push_back(std::move(count));
    state.atoms.push_back(std::move(state_atom));
  }
  state.domains.assign(domains.begin(), domains.end());
  return state;
}

BigInt GammaEvaluator::Count(State state) {
  // ∃x over an empty range is false.
  for (const auto& [v, n] : state.domains) {
    if (n.IsZero()) return BigInt(0);
  }
  if (state.atoms.empty()) return BigInt(1);
  std::sort(state.atoms.begin(), state.atoms.end());
  auto it = memo_.find(state);
  if (it != memo_.end()) {
    ++stats_.memo_hits;
    return it->second;
  }
  BigInt count = CountUncached(state);
  memo_.emplace(std::move(state), count);
  stats_.memo_entries = memo_.size();
  return count;
}

BigInt GammaEvaluator::CountUncached(State state) {
  std::vector<Atom>& atoms = state.atoms;
  Domains& domains = state.domains;
  BigInt factor(1);
  // Apply the non-branching rules (a), (c), (d), (e) to a fixed point.
  bool progress = true;
  while (progress) {
    progress = false;
    // (c) empty atom R(): its one grounding must be present.
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (atoms[i].vars.empty()) {
        factor *= atoms[i].present;
        atoms.erase(atoms.begin() + static_cast<std::ptrdiff_t>(i));
        ++stats_.rule_applications;
        progress = true;
        break;
      }
    }
    if (progress) continue;
    // (d) identical variable sets: a grounding of the merged atom is
    // present iff both of its groundings are.
    for (std::size_t i = 0; i < atoms.size() && !progress; ++i) {
      for (std::size_t j = i + 1; j < atoms.size(); ++j) {
        if (atoms[i].vars == atoms[j].vars) {
          atoms[i].present *= atoms[j].present;
          atoms[i].total *= atoms[j].total;
          atoms.erase(atoms.begin() + static_cast<std::ptrdiff_t>(j));
          ++stats_.rule_applications;
          progress = true;
          break;
        }
      }
    }
    if (progress) continue;
    // (a) isolated variable: occurs in exactly one atom.
    for (auto domain = domains.begin(); domain != domains.end(); ++domain) {
      int occurrences = 0;
      std::size_t home = 0;
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        if (Contains(atoms[i].vars, domain->first)) {
          ++occurrences;
          home = i;
        }
      }
      if (occurrences == 1) {
        // ∃x∈[n_x]: the merged grounding is present unless all n_x of its
        // groundings are absent.
        Atom& atom = atoms[home];
        BigInt all = PowBig(atom.total, domain->second);
        atom.present = all - PowBig(atom.total - atom.present, domain->second);
        atom.total = std::move(all);
        atom.vars.erase(
            std::find(atom.vars.begin(), atom.vars.end(), domain->first));
        domains.erase(domain);
        ++stats_.rule_applications;
        progress = true;
        break;
      }
    }
    if (progress) continue;
    // (e) edge-equivalent variables.
    for (std::size_t i = 0; i < domains.size() && !progress; ++i) {
      for (std::size_t j = i + 1; j < domains.size(); ++j) {
        int x = domains[i].first;
        int y = domains[j].first;
        bool equivalent = true;
        for (const Atom& atom : atoms) {
          if (Contains(atom.vars, x) != Contains(atom.vars, y)) {
            equivalent = false;
            break;
          }
        }
        if (equivalent) {
          for (Atom& atom : atoms) {
            auto at = std::find(atom.vars.begin(), atom.vars.end(), y);
            if (at != atom.vars.end()) atom.vars.erase(at);
          }
          domains[i].second *= domains[j].second;
          domains.erase(domains.begin() + static_cast<std::ptrdiff_t>(j));
          ++stats_.rule_applications;
          progress = true;
          break;
        }
      }
    }
  }

  if (atoms.empty()) return factor;

  // (b) singleton atom R(x): condition on k = |R| (recursion + memo).
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (atoms[i].vars.size() != 1) continue;
    int x = atoms[i].vars.front();
    const std::size_t x_index =
        static_cast<std::size_t>(FindDomain(domains, x) - domains.begin());
    const BigInt& nx_big = domains[x_index].second;
    if (!nx_big.FitsInt64() ||
        nx_big.ToInt64() > static_cast<std::int64_t>(kMaxConditioningDomain)) {
      throw std::invalid_argument(
          "GammaEvaluator: conditioning domain too large");
    }
    std::uint64_t nx = static_cast<std::uint64_t>(nx_big.ToInt64());
    BigInt present = std::move(atoms[i].present);
    // Per x-value left out of the chosen k: R(x) absent, and every tuple
    // of the other atoms with that x unconstrained (the factor T).
    BigInt outside = atoms[i].total - present;
    atoms.erase(atoms.begin() + static_cast<std::ptrdiff_t>(i));
    ++stats_.rule_applications;
    for (const Atom& atom : atoms) {
      if (!Contains(atom.vars, x)) continue;
      BigInt tuples_per_x(1);
      for (int v : atom.vars) {
        if (v != x) tuples_per_x *= FindDomain(domains, v)->second;
      }
      outside *= PowBig(atom.total, tuples_per_x);
    }
    // Σ_k C(n_x,k) a^k outside^{n_x−k} Count_k, by Horner in `outside`.
    BigInt sum;
    BigInt present_power(1);  // a^k
    for (std::uint64_t k = 0; k <= nx; ++k) {
      if (k > 0) {
        sum *= outside;
        present_power *= present;
      }
      if (present_power.IsZero() || (outside.IsZero() && k < nx)) continue;
      State sub = state;
      sub.domains[x_index].second = BigInt::FromUnsigned(k);
      sum += numeric::Binomial(nx, k) * present_power * Count(std::move(sub));
    }
    return factor * sum;
  }

  throw std::invalid_argument(
      "GammaEvaluator: reduction got stuck — the query is not "
      "gamma-acyclic");
}

numeric::BigRational GammaEvaluator::Probability(
    const ConjunctiveQuery& query,
    const std::map<std::string, numeric::BigInt>& domain_sizes) {
  std::map<std::string, std::pair<BigInt, BigInt>> weights;
  for (const ConjunctiveQuery::QueryAtom& atom : query.atoms()) {
    const BigRational& p = query.probability(atom.relation);
    weights[atom.relation] = {p.numerator(), p.denominator()};
  }
  std::vector<BigInt> groundings;
  State state = MakeState(query, weights, domain_sizes, &groundings);
  BigInt scale(1);
  for (std::size_t i = 0; i < groundings.size(); ++i) {
    scale *= PowBig(weights.at(query.atoms()[i].relation).second,
                    groundings[i]);
  }
  return BigRational(Count(std::move(state)), std::move(scale));
}

numeric::BigRational GammaEvaluator::Probability(
    const ConjunctiveQuery& query, std::uint64_t domain_size) {
  std::map<std::string, numeric::BigInt> domains;
  for (const std::string& v : query.Variables()) {
    domains[v] = numeric::BigInt::FromUnsigned(domain_size);
  }
  return Probability(query, domains);
}

numeric::BigRational GammaAcyclicProbability(const ConjunctiveQuery& query,
                                             std::uint64_t domain_size) {
  GammaEvaluator evaluator;
  return evaluator.Probability(query, domain_size);
}

numeric::BigRational GammaAcyclicWFOMC(
    const ConjunctiveQuery& query, std::uint64_t domain_size,
    const std::map<std::string,
                   std::pair<numeric::BigRational, numeric::BigRational>>&
        weights) {
  std::map<std::string, std::pair<BigInt, BigInt>> scaled;
  std::vector<BigInt> scales;
  for (const ConjunctiveQuery::QueryAtom& atom : query.atoms()) {
    auto it = weights.find(atom.relation);
    if (it == weights.end()) {
      throw std::invalid_argument("GammaAcyclicWFOMC: missing weights for " +
                                  atom.relation);
    }
    const auto& [w, w_bar] = it->second;
    numeric::ScaledWeightPair pair = numeric::ClearPairDenominators(w, w_bar);
    BigInt total = pair.positive + pair.negative;
    scaled[atom.relation] = {std::move(pair.positive), std::move(total)};
    scales.push_back(std::move(pair.scale));
  }
  std::map<std::string, BigInt> domains;
  const BigInt n = BigInt::FromUnsigned(domain_size);
  for (const std::string& v : query.Variables()) domains[v] = n;
  std::vector<BigInt> groundings;
  GammaEvaluator evaluator;
  BigInt count = evaluator.Count(
      GammaEvaluator::MakeState(query, scaled, domains, &groundings));
  BigInt scale(1);
  for (std::size_t i = 0; i < groundings.size(); ++i) {
    const ConjunctiveQuery::QueryAtom& atom = query.atoms()[i];
    BigInt tuples = BigInt::Pow(n, atom.variables.size());
    // Tuples off the atom's diagonal (a repeated variable) are free.
    count *= PowBig(scaled.at(atom.relation).second, tuples - groundings[i]);
    scale *= PowBig(scales[i], tuples);
  }
  return BigRational(std::move(count), std::move(scale));
}

}  // namespace swfomc::cq
