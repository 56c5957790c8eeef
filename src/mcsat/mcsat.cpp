#include "mcsat/mcsat.h"

#include <stdexcept>
#include <string>

#include "grounding/lineage.h"
#include "grounding/tuple_index.h"
#include "logic/evaluate.h"
#include "logic/transform.h"

namespace swfomc::mcsat {

namespace {

using numeric::BigRational;
using prop::Clause;
using prop::PropFormula;
using prop::PropKind;

constexpr std::size_t kMaxGroundClauses = 100000;

// CNF by distribution, without auxiliary variables (Tseitin would skew
// the sampling space). `negated` pushes pending negation down De Morgan
// style, so inputs need not be in NNF.
void DistributeToClauses(const PropFormula& formula, bool negated,
                         std::vector<Clause>* out) {
  switch (formula->kind()) {
    case PropKind::kTrue:
      if (negated) out->push_back(Clause{});
      return;
    case PropKind::kFalse:
      if (!negated) out->push_back(Clause{});
      return;
    case PropKind::kVar:
      out->push_back(Clause{prop::MakeLit(formula->variable(), !negated)});
      return;
    case PropKind::kNot:
      DistributeToClauses(formula->child(), !negated, out);
      return;
    case PropKind::kAnd:
    case PropKind::kOr: {
      bool conjunctive = (formula->kind() == PropKind::kAnd) != negated;
      if (conjunctive) {
        for (const PropFormula& child : formula->children()) {
          DistributeToClauses(child, negated, out);
          if (out->size() > kMaxGroundClauses) {
            throw std::invalid_argument(
                "McSatSampler: constraint grounds to too many clauses");
          }
        }
        return;
      }
      // Disjunction: distribute the children's clause sets.
      std::vector<Clause> result{Clause{}};
      for (const PropFormula& child : formula->children()) {
        std::vector<Clause> child_clauses;
        DistributeToClauses(child, negated, &child_clauses);
        std::vector<Clause> next;
        next.reserve(result.size() * child_clauses.size());
        for (const Clause& a : result) {
          for (const Clause& b : child_clauses) {
            Clause merged = a;
            merged.insert(merged.end(), b.begin(), b.end());
            next.push_back(std::move(merged));
          }
        }
        result = std::move(next);
        if (result.size() > kMaxGroundClauses) {
          throw std::invalid_argument(
              "McSatSampler: constraint grounds to too many clauses");
        }
      }
      out->insert(out->end(), result.begin(), result.end());
      return;
    }
  }
  throw std::logic_error("DistributeToClauses: unreachable");
}

std::vector<Clause> ToClauses(const PropFormula& formula) {
  std::vector<Clause> clauses;
  DistributeToClauses(formula, /*negated=*/false, &clauses);
  return clauses;
}

// Enumerates all groundings ϕ[a⃗/x⃗] of the constraint formula over [n].
template <typename Visit>
void ForEachGrounding(const logic::Formula& formula, std::uint64_t n,
                      const Visit& visit) {
  std::set<std::string> free_set = logic::FreeVariables(formula);
  std::vector<std::string> free_vars(free_set.begin(), free_set.end());
  if (free_vars.empty()) {
    visit(formula);
    return;
  }
  if (n == 0) return;
  std::vector<std::uint64_t> assignment(free_vars.size(), 0);
  for (;;) {
    logic::Formula ground = formula;
    for (std::size_t i = 0; i < free_vars.size(); ++i) {
      ground = logic::SubstituteConstant(ground, free_vars[i], assignment[i]);
    }
    visit(ground);
    std::size_t position = 0;
    while (position < assignment.size() && ++assignment[position] == n) {
      assignment[position] = 0;
      ++position;
    }
    if (position == assignment.size()) break;
  }
}

}  // namespace

McSatSampler::McSatSampler(const mln::MarkovLogicNetwork& network,
                           std::uint64_t domain_size, McSatOptions options)
    : domain_size_(domain_size),
      options_(options),
      rng_(options.seed),
      vocabulary_(&network.vocabulary()) {
  grounding::TupleIndex index(network.vocabulary(), domain_size);
  tuple_count_ = index.TupleCount();

  for (const mln::MarkovLogicNetwork::Constraint& constraint :
       network.constraints()) {
    if (!constraint.weight.has_value()) {
      // Hard constraint: its ground clauses always apply.
      ForEachGrounding(constraint.formula, domain_size,
                       [&](const logic::Formula& ground) {
                         PropFormula lineage =
                             grounding::GroundLineage(ground, index);
                         std::vector<Clause> clauses = ToClauses(lineage);
                         hard_clauses_.insert(hard_clauses_.end(),
                                              clauses.begin(), clauses.end());
                       });
      continue;
    }
    BigRational weight = *constraint.weight;
    if (weight.Sign() <= 0) {
      throw std::invalid_argument(
          "McSatSampler: soft weights must be positive");
    }
    if (weight.IsOne()) continue;  // no-op constraint
    bool negate = weight < BigRational(1);
    if (negate) weight = BigRational(1) / weight;  // (w,ϕ) ≡ (1/w,¬ϕ)
    double keep = 1.0 - 1.0 / weight.ToDouble();
    ForEachGrounding(
        constraint.formula, domain_size, [&](const logic::Formula& ground) {
          PropFormula lineage = grounding::GroundLineage(ground, index);
          if (negate) lineage = prop::PropNot(lineage);
          GroundSoft soft;
          soft.keep_probability = keep;
          soft.formula = lineage;
          soft.cnf = ToClauses(lineage);
          soft_.push_back(std::move(soft));
        });
  }
}

bool McSatSampler::Step(std::vector<bool>* current) {
  std::vector<Clause> selected = hard_clauses_;
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (const GroundSoft& soft : soft_) {
    if (prop::EvaluateProp(soft.formula, *current) &&
        coin(rng_) < soft.keep_probability) {
      selected.insert(selected.end(), soft.cnf.begin(), soft.cnf.end());
    }
  }
  prop::CnfFormula cnf;
  cnf.variable_count = static_cast<std::uint32_t>(tuple_count_);
  cnf.clauses = std::move(selected);
  WalkSat sampler(std::move(cnf), options_.walksat, rng_());
  auto next = sampler.Sample(options_.sa_probability, options_.temperature);
  if (!next.has_value()) return false;
  *current = std::move(*next);
  return true;
}

std::vector<logic::Structure> McSatSampler::DrawSamples() {
  // Initial state: any world satisfying the hard constraints.
  prop::CnfFormula hard;
  hard.variable_count = static_cast<std::uint32_t>(tuple_count_);
  hard.clauses = hard_clauses_;
  WalkSat initializer(std::move(hard), options_.walksat, rng_());
  auto initial = initializer.Solve();
  if (!initial.has_value()) {
    throw std::runtime_error(
        "McSatSampler: could not satisfy the hard constraints (UNSAT or "
        "search budget exhausted)");
  }
  std::vector<bool> current = std::move(*initial);

  std::vector<logic::Structure> samples;
  samples.reserve(options_.samples);
  for (std::uint64_t i = 0; i < options_.burn_in + options_.samples; ++i) {
    Step(&current);  // on failure the chain stays put (still a sample)
    if (i < options_.burn_in) continue;
    logic::Structure world(*vocabulary_, domain_size_);
    for (std::uint64_t bit = 0; bit < tuple_count_; ++bit) {
      world.SetBit(bit, current[bit]);
    }
    samples.push_back(std::move(world));
  }
  return samples;
}

double McSatSampler::EstimateProbability(const logic::Formula& query) {
  std::vector<logic::Structure> samples = DrawSamples();
  if (samples.empty()) return 0.0;
  std::uint64_t hits = 0;
  for (const logic::Structure& world : samples) {
    if (logic::Evaluate(world, query)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(samples.size());
}

}  // namespace swfomc::mcsat
