#ifndef SWFOMC_TESTS_TEST_UTIL_H_
#define SWFOMC_TESTS_TEST_UTIL_H_

// Shared seeded generators and checks for the property suites. Everything
// here is deterministic in the caller-supplied rng/seed so test shards and
// reruns see identical instances.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "cq/conjunctive_query.h"
#include "io/diagnostics.h"
#include "logic/formula.h"
#include "logic/vocabulary.h"
#include "numeric/rational.h"
#include "prop/cnf.h"
#include "prop/prop_formula.h"
#include "wmc/weights.h"

namespace swfomc::testutil {

/// Random CNF over `variables` variables: `clauses` clauses of 1..max_len
/// literals each, uniformly random variable and polarity. Duplicate and
/// complementary literals within a clause are allowed — counters must
/// handle both.
inline prop::CnfFormula RandomCnf(std::mt19937_64* rng,
                                  std::uint32_t variables,
                                  std::size_t clauses, std::size_t max_len) {
  prop::CnfFormula cnf;
  cnf.variable_count = variables;
  std::uniform_int_distribution<std::uint32_t> var_dist(0, variables - 1);
  for (std::size_t i = 0; i < clauses; ++i) {
    std::size_t len = 1 + (*rng)() % max_len;
    prop::Clause clause;
    for (std::size_t j = 0; j < len; ++j) {
      // Two statements: the variable is drawn before the polarity.
      prop::VarId variable = var_dist(*rng);
      bool positive = ((*rng)() & 1) != 0;
      clause.push_back(prop::MakeLit(variable, positive));
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

/// Random weight table with small fractional weights; negative w/w̄ are
/// included when `allow_negative` (the paper's Section 2 semantics allows
/// them, and the exact engines must agree there too).
inline wmc::WeightMap RandomWeights(std::mt19937_64* rng,
                                    std::uint32_t variables,
                                    bool allow_negative) {
  wmc::WeightMap weights(variables);
  std::uniform_int_distribution<std::int64_t> dist(allow_negative ? -3 : 1, 4);
  for (prop::VarId v = 0; v < variables; ++v) {
    std::int64_t wp = dist(*rng), wn = dist(*rng);
    weights.Set(v, numeric::BigRational::Fraction(wp, 2),
                numeric::BigRational::Fraction(wn, 3));
  }
  return weights;
}

/// Random weight table concentrated at the BigInt inline-word boundary:
/// numerators within a few units of ±2^62 over denominators of 1, 2, or
/// likewise near 2^62. A product of any two such weights overflows the
/// inline int64 form (promote), while sums and gcd reductions routinely
/// land back inside it (demote) — so counting under these weights hammers
/// exactly the promote/demote seam the small-value representation adds.
inline wmc::WeightMap RandomBoundaryWeights(std::mt19937_64* rng,
                                            std::uint32_t variables) {
  wmc::WeightMap weights(variables);
  constexpr std::int64_t kBoundary = std::int64_t{1} << 62;
  auto near_boundary = [rng]() {
    std::int64_t magnitude =
        kBoundary - 2 + static_cast<std::int64_t>((*rng)() % 5);
    return ((*rng)() & 1) != 0 ? magnitude : -magnitude;
  };
  auto denominator = [rng, near_boundary]() -> std::int64_t {
    switch ((*rng)() % 3) {
      case 0: return 1;
      case 1: return 2;
      default: return std::abs(near_boundary());
    }
  };
  for (prop::VarId v = 0; v < variables; ++v) {
    weights.Set(v,
                numeric::BigRational::Fraction(near_boundary(), denominator()),
                numeric::BigRational::Fraction(near_boundary(), denominator()));
  }
  return weights;
}

/// Random propositional formula tree of depth <= `depth` over `variables`
/// variables: leaves are (possibly negated) variables, interior nodes are
/// And/Or with early termination so shapes vary.
inline prop::PropFormula RandomPropFormula(std::mt19937_64* rng, int depth,
                                           std::uint32_t variables) {
  if (depth == 0 || (*rng)() % 3 == 0) {
    prop::PropFormula v =
        prop::PropVar(static_cast<prop::VarId>((*rng)() % variables));
    return (*rng)() % 2 ? prop::PropNot(v) : v;
  }
  prop::PropFormula a = RandomPropFormula(rng, depth - 1, variables);
  prop::PropFormula b = RandomPropFormula(rng, depth - 1, variables);
  return (*rng)() % 2 ? prop::PropAnd(a, b) : prop::PropOr(a, b);
}

/// Random tree-shaped (hence γ-acyclic) query: atoms R1..Rk, each new atom
/// shares exactly one variable with an earlier atom and introduces one
/// fresh variable — a random spanning tree over variables. Every relation
/// gets a random probability in {1/4, 2/4, 3/4}.
inline cq::ConjunctiveQuery MakeRandomTreeQuery(std::uint64_t seed,
                                                std::size_t atoms) {
  std::mt19937_64 rng(seed);
  cq::ConjunctiveQuery query;
  std::vector<std::string> variables = {"v0", "v1"};
  query.AddAtom("R1", {"v0", "v1"});
  for (std::size_t i = 2; i <= atoms; ++i) {
    std::string shared = variables[rng() % variables.size()];
    std::string fresh = "v" + std::to_string(variables.size());
    variables.push_back(fresh);
    // Random atom shape: binary, or unary on the fresh variable.
    if (rng() % 4 == 0) {
      query.AddAtom("R" + std::to_string(i), {fresh});
    } else if (rng() % 2 == 0) {
      query.AddAtom("R" + std::to_string(i), {shared, fresh});
    } else {
      query.AddAtom("R" + std::to_string(i), {fresh, shared});
    }
  }
  for (const cq::ConjunctiveQuery::QueryAtom& atom : query.atoms()) {
    std::int64_t numerator = static_cast<std::int64_t>(1 + rng() % 3);
    query.SetProbability(atom.relation,
                         numeric::BigRational::Fraction(numerator, 4));
  }
  return query;
}

/// A random sentence paired with the weighted vocabulary it was built
/// against (the differential suites push one instance through several
/// engines).
struct RandomSentence {
  logic::Formula sentence;
  logic::Vocabulary vocabulary;
};

/// Random FO² sentence over {U/1, V/1, R/2}: a random quantifier-free
/// matrix over the eight atoms on {x, y}, wrapped in a random two-variable
/// quantifier prefix. Weight pattern varies with the seed and includes
/// fractional and negative weights (the exact engines must agree there
/// too). Always inside the lifted fragment: no constants, arity <= 2.
inline RandomSentence MakeRandomFO2Sentence(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  RandomSentence result;
  auto pick_weight = [&]() {
    switch (rng() % 5) {
      case 0: return numeric::BigRational(1);
      case 1: return numeric::BigRational(2);
      case 2: return numeric::BigRational::Fraction(1, 2);
      case 3: return numeric::BigRational(3);
      default: return numeric::BigRational(-1);
    }
  };
  logic::RelationId u = result.vocabulary.AddRelation(
      "U", 1, pick_weight(), numeric::BigRational(1));
  logic::RelationId v = result.vocabulary.AddRelation(
      "V", 1, pick_weight(), numeric::BigRational(1));
  logic::RelationId r =
      result.vocabulary.AddRelation("R", 2, pick_weight(), pick_weight());

  auto var = [](const char* name) { return logic::Term::Var(name); };
  std::vector<logic::Formula> atoms = {
      logic::Atom(u, {var("x")}),           logic::Atom(u, {var("y")}),
      logic::Atom(v, {var("x")}),           logic::Atom(v, {var("y")}),
      logic::Atom(r, {var("x"), var("y")}), logic::Atom(r, {var("y"), var("x")}),
      logic::Atom(r, {var("x"), var("x")}), logic::Atom(r, {var("y"), var("y")}),
  };
  // Random matrix: a small tree of connectives over random atoms.
  std::function<logic::Formula(int)> matrix = [&](int depth) -> logic::Formula {
    if (depth == 0 || rng() % 3 == 0) {
      logic::Formula atom = atoms[rng() % atoms.size()];
      return rng() % 2 ? logic::Not(atom) : atom;
    }
    logic::Formula a = matrix(depth - 1);
    logic::Formula b = matrix(depth - 1);
    switch (rng() % 3) {
      case 0: return logic::And(std::move(a), std::move(b));
      case 1: return logic::Or(std::move(a), std::move(b));
      default: return logic::Implies(std::move(a), std::move(b));
    }
  };
  logic::Formula body = matrix(2);
  switch (rng() % 4) {
    case 0:
      result.sentence = logic::Forall("x", logic::Forall("y", body));
      break;
    case 1:
      result.sentence = logic::Forall("x", logic::Exists("y", body));
      break;
    case 2:
      result.sentence = logic::Exists("x", logic::Forall("y", body));
      break;
    default:
      result.sentence = logic::Exists("x", logic::Exists("y", body));
      break;
  }
  return result;
}

/// Random γ-acyclic conjunctive query *as a sentence*: the tree-query
/// shape of MakeRandomTreeQuery (each atom shares exactly one variable
/// with an earlier atom and introduces a fresh one), existentially closed
/// over all variables, with random positive weights on a fresh
/// vocabulary.
inline RandomSentence MakeRandomGammaAcyclicSentence(std::uint64_t seed,
                                                     std::size_t atoms) {
  std::mt19937_64 rng(seed);
  RandomSentence result;
  auto pick_weight = [&]() {
    switch (rng() % 4) {
      case 0: return numeric::BigRational(1);
      case 1: return numeric::BigRational(2);
      case 2: return numeric::BigRational::Fraction(1, 2);
      default: return numeric::BigRational::Fraction(3, 2);
    }
  };
  auto var = [](const std::string& name) { return logic::Term::Var(name); };
  std::vector<std::string> variables = {"v0", "v1"};
  logic::RelationId r1 =
      result.vocabulary.AddRelation("R1", 2, pick_weight(), pick_weight());
  logic::Formula body = logic::Atom(r1, {var("v0"), var("v1")});
  for (std::size_t i = 2; i <= atoms; ++i) {
    std::string shared = variables[rng() % variables.size()];
    std::string fresh = "v" + std::to_string(variables.size());
    variables.push_back(fresh);
    std::string name = "R" + std::to_string(i);
    logic::Formula atom;
    if (rng() % 4 == 0) {
      atom = logic::Atom(
          result.vocabulary.AddRelation(name, 1, pick_weight(), pick_weight()),
          {var(fresh)});
    } else if (rng() % 2 == 0) {
      atom = logic::Atom(
          result.vocabulary.AddRelation(name, 2, pick_weight(), pick_weight()),
          {var(shared), var(fresh)});
    } else {
      atom = logic::Atom(
          result.vocabulary.AddRelation(name, 2, pick_weight(), pick_weight()),
          {var(fresh), var(shared)});
    }
    body = logic::And(std::move(body), std::move(atom));
  }
  result.sentence = std::move(body);
  for (std::size_t i = variables.size(); i-- > 0;) {
    result.sentence = logic::Exists(variables[i], std::move(result.sentence));
  }
  return result;
}

/// Base seed for the fuzz suites: the committed default, overridable with
/// the SWFOMC_FUZZ_SEED environment variable (CI rotates it per run and
/// logs the value so any failure is replayable).
inline std::uint64_t FuzzBaseSeed(std::uint64_t default_seed) {
  const char* env = std::getenv("SWFOMC_FUZZ_SEED");
  if (env == nullptr || *env == '\0') return default_seed;
  return std::strtoull(env, nullptr, 10);
}

/// Mutation fuzz for a text reader. Each of `mutants` copies of `valid`
/// gets one to three random edits — replace, erase or insert — drawing
/// new characters from `alphabet`. `canonical(text)` parses a mutant and
/// prints it back; it must either throw io::ParseError at a 1-based
/// position or return a text that is its own fixpoint. Any other
/// exception escapes and fails the calling test.
template <typename Canonical>
void ExpectMutantsParseOrFail(const std::string& valid,
                              const std::string& alphabet, int mutants,
                              Canonical canonical) {
  std::uint64_t base = FuzzBaseSeed(1);
  std::mt19937_64 rng(base ^ 0x9e3779b97f4a7c15ull);
  for (int i = 0; i < mutants; ++i) {
    std::string mutated = valid;
    std::size_t edits = 1 + rng() % 3;
    for (std::size_t e = 0; e < edits; ++e) {
      std::size_t at = rng() % mutated.size();
      switch (rng() % 3) {
        case 0: mutated[at] = alphabet[rng() % alphabet.size()]; break;
        case 1: mutated.erase(at, 1 + rng() % 3); break;
        default:
          mutated.insert(at, 1, alphabet[rng() % alphabet.size()]);
      }
      if (mutated.empty()) mutated = "x";
    }
    std::string once;
    try {
      once = canonical(mutated);
    } catch (const io::ParseError& error) {
      EXPECT_GE(error.location().line, 1u);
      EXPECT_GE(error.location().column, 1u);
      continue;
    }
    EXPECT_EQ(canonical(once), once)
        << "base seed " << base << ", mutant:\n" << mutated;
  }
}

}  // namespace swfomc::testutil

#endif  // SWFOMC_TESTS_TEST_UTIL_H_
