// The lifted knowledge-compilation stack: fo2::CompileLifted, the
// nnf::LiftedCircuit evaluator, the unified Engine::Compile router, and
// the .nnf counting-node dialect.
//
// Correctness here is differential: a lifted circuit is compiled ONCE
// and its Evaluate(n, w) must be bit-identical to a per-point count and
// to a fresh grounded compile at every (n, weight vector) pair, and each
// counting node to a plain composition sum over its evaluated children —
// including zero and negative weights, where a numeric shortcut in
// either path would show up as a disagreement.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "api/engine.h"
#include "closedforms/closed_forms.h"
#include "fo2/cell_algorithm.h"
#include "fo2/lifted_compiler.h"
#include "grounding/grounded_wfomc.h"
#include "io/diagnostics.h"
#include "io/nnf_format.h"
#include "io/runner.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/transform.h"
#include "nnf/lifted_circuit.h"
#include "numeric/combinatorics.h"
#include "numeric/rational.h"
#include "test_util.h"

namespace swfomc {
namespace {

using api::CompileOptions;
using api::CompileResult;
using api::CompiledQuery;
using api::Engine;
using api::Method;
using api::Outcome;
using api::RelationWeights;
using numeric::BigInt;
using numeric::BigRational;
using testutil::FuzzBaseSeed;
using testutil::MakeRandomFO2Sentence;
using testutil::RandomSentence;

constexpr std::uint64_t kDefaultBaseSeed = 1;

std::uint64_t BaseSeed() {
  static std::uint64_t seed = FuzzBaseSeed(kDefaultBaseSeed);
  return seed;
}

/// The four weight regimes the reweighting legs sweep: neutral,
/// fractional, negative, and zero (the regimes where a direct counter is
/// allowed to prune but a compiled circuit is not).
struct Regime {
  const char* label;
  BigRational positive;
  BigRational negative;
};

std::vector<Regime> Regimes() {
  return {
      {"unit", BigRational(1), BigRational(1)},
      {"fractional", BigRational(3), BigRational::Fraction(1, 2)},
      {"negative", BigRational(-1), BigRational(2)},
      {"zero", BigRational(0), BigRational(1)},
  };
}

// --- The headline differential: one compile, every (n, w, threads). ---

// Fixed liftable sentences with few 1-types, so the full n ∈ [1, 32]
// sweep stays cheap (the counting node is O(n^{C-1}); random sentences
// can reach C ≈ 32 cells and are exercised at small n below, like the
// other tier-1 fuzz suites).
TEST(LiftedCompile, LiftedCompileAgreesWithCellAlgorithmAndGroundedCompile) {
  struct Fixed {
    const char* text;
    const char* binary;  // the relation the reweighting legs replace
  };
  const Fixed sentences[] = {
      {"forall x exists y S(x,y)", "S"},
      {"forall x forall y (S(x,y) -> (C(x) | C(y)))", "S"},
      {"forall x forall y (!E(x,x) & (E(x,y) -> E(y,x)))", "E"},
  };
  for (const Fixed& fixed : sentences) {
    const char* text = fixed.text;
    SCOPED_TRACE(text);
    Engine engine{logic::Vocabulary{}};
    logic::Formula sentence = engine.Parse(text);
    const std::string binary = fixed.binary;

    // Compile once, domain-free: the tentpole contract.
    ASSERT_TRUE(engine.CanCompileLifted(sentence));
    CompileResult result = engine.Compile(sentence, CompileOptions{});
    ASSERT_EQ(result.outcome, Outcome::kExact);
    ASSERT_EQ(result.method, Method::kLiftedFO2);
    ASSERT_TRUE(result.compiled.has_value());
    const CompiledQuery& query = *result.compiled;
    ASSERT_EQ(query.kind(), CompiledQuery::Kind::kLifted);
    EXPECT_EQ(query.domain_size(), 0u);

    // Leg 1: per-point counts (fo2::LiftedWFOMC), n in [1, 32].
    for (std::uint64_t n = 1; n <= 32; ++n) {
      EXPECT_EQ(query.Evaluate(n, {}),
                fo2::LiftedWFOMC(sentence, engine.vocabulary(), n))
          << "n=" << n;
    }

    // Leg 2: WFOMCSweep — the compiled circuit must match every point.
    Engine::SweepResult sweep =
        engine.WFOMCSweep(sentence, 1, 32, Method::kLiftedFO2);
    ASSERT_EQ(sweep.points.size(), 32u);
    for (const Engine::SweepPoint& point : sweep.points) {
      EXPECT_EQ(query.Evaluate(point.domain_size, {}), point.value)
          << "n=" << point.domain_size;
    }

    // Leg 3: reweighting. Replace the binary relation's weights per
    // regime and compare against a vocabulary carrying those weights —
    // the compiled circuit must track reweights without recompiling.
    for (const Regime& regime : Regimes()) {
      SCOPED_TRACE(std::string("regime=") + regime.label);
      std::vector<RelationWeights> reweights = {
          {binary, regime.positive, regime.negative}};
      logic::Vocabulary reweighted = engine.vocabulary();
      reweighted.SetWeights(reweighted.Require(binary), regime.positive,
                            regime.negative);
      for (std::uint64_t n = 1; n <= 16; ++n) {
        EXPECT_EQ(query.Evaluate(n, reweights),
                  fo2::LiftedWFOMC(sentence, reweighted, n))
            << "n=" << n;
      }
    }

    // Leg 4: the grounded compiler at small n — a different circuit
    // kind, a different algorithm, the same number.
    for (std::uint64_t n = 1; n <= 3; ++n) {
      CompileOptions grounded_options;
      grounded_options.domain_size = n;
      grounded_options.method = Method::kGrounded;
      CompileResult grounded = engine.Compile(sentence, grounded_options);
      ASSERT_EQ(grounded.outcome, Outcome::kExact);
      ASSERT_TRUE(grounded.compiled.has_value());
      ASSERT_EQ(grounded.compiled->kind(), CompiledQuery::Kind::kGrounded);
      EXPECT_EQ(query.Evaluate(n, {}), grounded.compiled->Evaluate(n, {}))
          << "n=" << n;
      for (const Regime& regime : Regimes()) {
        std::vector<RelationWeights> reweights = {
            {binary, regime.positive, regime.negative}};
        EXPECT_EQ(query.Evaluate(n, reweights),
                  grounded.compiled->Evaluate(n, reweights))
            << "n=" << n << " regime=" << regime.label;
      }
    }
  }
}

// Seeded random FO² sentences at small n — the same generator and sizes
// as the tier-1 differential_fuzz suite (cell counts can be large, so
// big n belongs to the cross_engine sweep).
TEST(LiftedCompile, RandomFO2SentencesAgreeAcrossAllLegs) {
  std::uint64_t base = BaseSeed();
  ::testing::Test::RecordProperty("fuzz_base_seed",
                                  static_cast<int64_t>(base));
  for (std::uint64_t offset = 0; offset < 8; ++offset) {
    std::uint64_t seed = base + offset;
    RandomSentence random = MakeRandomFO2Sentence(seed);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " sentence=" +
                 logic::ToString(random.sentence, random.vocabulary));

    Engine engine(random.vocabulary);
    ASSERT_TRUE(engine.CanCompileLifted(random.sentence));
    CompileResult result = engine.Compile(random.sentence, CompileOptions{});
    ASSERT_EQ(result.method, Method::kLiftedFO2);
    ASSERT_TRUE(result.compiled.has_value());
    const CompiledQuery& query = *result.compiled;

    for (std::uint64_t n = 1; n <= 4; ++n) {
      // Per-point count, compile-time weights.
      EXPECT_EQ(query.Evaluate(n, {}),
                fo2::LiftedWFOMC(random.sentence, random.vocabulary, n))
          << "n=" << n;
      // Reweighted, against a reweighted per-point count.
      for (const Regime& regime : Regimes()) {
        std::vector<RelationWeights> reweights = {
            {"R", regime.positive, regime.negative}};
        logic::Vocabulary reweighted = random.vocabulary;
        reweighted.SetWeights(reweighted.Require("R"), regime.positive,
                              regime.negative);
        EXPECT_EQ(query.Evaluate(n, reweights),
                  fo2::LiftedWFOMC(random.sentence, reweighted, n))
            << "n=" << n << " regime=" << regime.label;
      }
    }
    // Grounded compile at n = 2: a different circuit kind, the same
    // number, under every regime.
    CompileOptions grounded_options;
    grounded_options.domain_size = 2;
    grounded_options.method = Method::kGrounded;
    CompileResult grounded = engine.Compile(random.sentence, grounded_options);
    ASSERT_TRUE(grounded.compiled.has_value());
    for (const Regime& regime : Regimes()) {
      std::vector<RelationWeights> reweights = {
          {"R", regime.positive, regime.negative}};
      EXPECT_EQ(query.Evaluate(2, reweights),
                grounded.compiled->Evaluate(2, reweights))
          << "regime=" << regime.label;
    }
  }
}

// --- The counting node: merged cells, nested sum. ---

// A test-only oracle: Appendix C's composition sum over the evaluated
// cell weights u and pair sums r, one power per factor, with no merging,
// no carried products and no pruning.
BigRational PlainCompositionSum(
    std::uint64_t n, const std::vector<BigRational>& u,
    const std::vector<std::vector<BigRational>>& r) {
  BigRational total;
  numeric::ForEachComposition(
      n, u.size(), [&](const std::vector<std::uint64_t>& counts) {
        BigRational term(numeric::Multinomial(n, counts));
        for (std::size_t l = 0; l < u.size(); ++l) {
          auto n_l = static_cast<std::int64_t>(counts[l]);
          term *= BigRational::Pow(u[l], n_l);
          term *= BigRational::Pow(r[l][l], n_l * (n_l - 1) / 2);
          for (std::size_t k = 0; k < l; ++k) {
            term *= BigRational::Pow(
                r[k][l], static_cast<std::int64_t>(counts[k]) * n_l);
          }
        }
        total += term;
        return true;
      });
  return total;
}

// Weight pairs for the counting-node fuzz: zero phases (cells drop),
// negative weights, w + w̄ = 0 (pair sums vanish, so subtrees prune),
// w = w̄ and unit weights (cells whose pair sums coincide, so they
// merge), and a fractional pair.
std::pair<BigRational, BigRational> PickCountingWeights(std::mt19937_64* rng) {
  switch ((*rng)() % 7) {
    case 0: return {BigRational(0), BigRational(1)};
    case 1: return {BigRational(2), BigRational(0)};
    case 2: return {BigRational(-1), BigRational(2)};
    case 3: return {BigRational(1), BigRational(-1)};
    case 4: return {BigRational(3), BigRational(3)};
    case 5: return {BigRational(1), BigRational(1)};
    default: return {BigRational::Fraction(1, 2), BigRational(3)};
  }
}

// A random FO² sentence over U/1, V/1, R/2: a two-variable prefix over a
// conjunction of clauses of 2..3 literals. The first clause joins U(x)
// and V(y) in some polarity, which makes some cells incompatible (their
// pair sum vanishes while their own do not); 0..2 random clauses follow.
std::string RandomClausalSentence(std::mt19937_64* rng) {
  static const char* const kAtoms[] = {"U(x)",   "U(y)",   "V(x)",
                                       "V(y)",   "R(x,y)", "R(y,x)",
                                       "R(x,x)", "R(y,y)"};
  static const char* const kPrefixes[] = {"forall x forall y",
                                          "forall x exists y",
                                          "exists x forall y"};
  auto sign = [&] { return (*rng)() % 2 == 0 ? "!" : ""; };
  std::string matrix = std::string("(") + sign() + "U(x) | " + sign() + "V(y))";
  const std::uint64_t clauses = (*rng)() % 3;
  for (std::uint64_t c = 0; c < clauses; ++c) {
    matrix += " & (";
    const std::uint64_t literals = 2 + (*rng)() % 2;
    for (std::uint64_t i = 0; i < literals; ++i) {
      if (i > 0) matrix += " | ";
      matrix += sign();
      matrix += kAtoms[(*rng)() % std::size(kAtoms)];
    }
    matrix += ")";
  }
  return std::string(kPrefixes[(*rng)() % 3]) + " (" + matrix + ")";
}

// Every counting node's value against the plain sum over the same
// evaluated children, and the circuit's value against the grounded
// counter (n <= 4) and exhaustive enumeration (n <= 3), for n = 1..10 on
// random FO² sentences and weights. The plain sum is skipped where it
// would visit more than kPlainTerms compositions.
TEST(LiftedCountingNode, MergedNestedSumMatchesPlainCompositionSum) {
  constexpr std::uint64_t kInstances = 24;
  constexpr std::uint64_t kPlainTerms = 20000;
  std::uint64_t base = BaseSeed();
  ::testing::Test::RecordProperty("fuzz_base_seed",
                                  static_cast<int64_t>(base));
  std::uint64_t merged_instances = 0;
  std::uint64_t pruned_instances = 0;
  std::uint64_t plain_checks = 0;
  for (std::uint64_t offset = 0; offset < kInstances; ++offset) {
    const std::uint64_t seed = base + offset;
    std::mt19937_64 rng(seed);
    logic::Vocabulary vocabulary;
    const std::string text = RandomClausalSentence(&rng);
    logic::Formula sentence = logic::Parse(text, &vocabulary);
    for (logic::RelationId id = 0; id < vocabulary.size(); ++id) {
      auto [w, w_bar] = PickCountingWeights(&rng);
      vocabulary.SetWeights(id, std::move(w), std::move(w_bar));
    }
    SCOPED_TRACE("seed=" + std::to_string(seed) + " sentence=" + text);
    nnf::LiftedCircuit circuit = fo2::CompileLifted(sentence, vocabulary);
    const nnf::LiftedCircuit::Weights weights = circuit.DefaultWeights();
    numeric::BinomialTable binomials;
    std::vector<BigRational> values;
    nnf::LiftedCircuit::EvalStats stats;
    for (std::uint64_t n = 1; n <= 10; ++n) {
      SCOPED_TRACE("n=" + std::to_string(n));
      BigRational value =
          circuit.Evaluate(n, weights, &binomials, &values, &stats);
      for (nnf::LiftedCircuit::NodeId id = 0; id < circuit.node_count();
           ++id) {
        const nnf::LiftedCircuit::Node& node = circuit.node(id);
        if (node.kind != nnf::LiftedCircuit::Kind::kCount) continue;
        if (numeric::CompositionCount(n, node.cells) > BigInt(kPlainTerms)) {
          continue;
        }
        std::span<const nnf::LiftedCircuit::NodeId> children =
            circuit.Children(id);
        const std::size_t cells = node.cells;
        std::vector<BigRational> u(cells);
        std::vector<std::vector<BigRational>> r(
            cells, std::vector<BigRational>(cells));
        std::size_t slot = cells;
        for (std::size_t k = 0; k < cells; ++k) {
          u[k] = values[children[k]];
          for (std::size_t l = k; l < cells; ++l) {
            r[k][l] = r[l][k] = values[children[slot++]];
          }
        }
        EXPECT_EQ(values[id], PlainCompositionSum(n, u, r)) << "node " << id;
        ++plain_checks;
      }
      if (n <= 4) {
        EXPECT_EQ(value, grounding::GroundedWFOMC(sentence, vocabulary, n));
      }
      if (n <= 3) {
        EXPECT_EQ(value, grounding::ExhaustiveWFOMC(sentence, vocabulary, n));
      }
    }
    if (stats.merged_cells > 0) ++merged_instances;
    if (stats.pruned_subtrees > 0) ++pruned_instances;
  }
  // Both shortcuts must actually be exercised by the fuzz.
  EXPECT_GE(4 * merged_instances, kInstances);
  EXPECT_GE(4 * pruned_instances, kInstances);
  EXPECT_GE(plain_checks, kInstances * 3);
}

// The engine's sweep at large n against the paper's closed forms: one
// compiled circuit, evaluated at every n = 16..32. Integer weights keep
// the 1000-digit rationals of n = 32 free of gcds.
TEST(LiftedCountingNode, SweepMatchesClosedFormsAtLargeN) {
  const BigRational w(2), w_bar(-3);
  {
    logic::Vocabulary vocabulary;
    vocabulary.AddRelation("R", 2, w, w_bar);
    Engine engine(vocabulary);
    Engine::SweepResult sweep =
        engine.WFOMCSweep(engine.Parse("forall x exists y R(x,y)"), 16, 32);
    ASSERT_EQ(sweep.method, Method::kLiftedFO2);
    for (const Engine::SweepPoint& point : sweep.points) {
      EXPECT_EQ(point.value,
                closedforms::ForallExistsWFOMC(point.domain_size, w, w_bar))
          << "n=" << point.domain_size;
    }
  }
  {
    logic::Vocabulary vocabulary;
    vocabulary.AddRelation("R", 1, BigRational(3), BigRational(1));
    vocabulary.AddRelation("S", 2, w, w_bar);
    vocabulary.AddRelation("T", 1, BigRational(-1), BigRational(2));
    Engine engine(vocabulary);
    Engine::SweepResult sweep = engine.WFOMCSweep(
        engine.Parse("forall x forall y (R(x) | S(x,y) | T(y))"), 16, 32);
    ASSERT_EQ(sweep.method, Method::kLiftedFO2);
    for (const Engine::SweepPoint& point : sweep.points) {
      EXPECT_EQ(point.value,
                closedforms::Table1WFOMC(point.domain_size, BigRational(3),
                                         BigRational(1), w, w_bar,
                                         BigRational(-1), BigRational(2)))
          << "n=" << point.domain_size;
    }
  }
}

// --- Unified-API contracts around the two circuit kinds. ---

TEST(LiftedCompile, AutoRoutingPicksTheLiftedCompilerForFO2) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y S(x,y)");
  CompileResult result = engine.Compile(f, CompileOptions{});
  ASSERT_TRUE(result.compiled.has_value());
  EXPECT_EQ(result.method, Method::kLiftedFO2);
  EXPECT_EQ(result.compiled->kind(), CompiledQuery::Kind::kLifted);
  // n ↦ (2^n - 1)^n: every element picks a non-empty successor set.
  EXPECT_EQ(result.compiled->Evaluate(3, {}), BigRational(343));
}

TEST(LiftedCompile, GroundedCompileWithoutDomainSizeIsRejected) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x T(x,x,x)");  // arity 3
  EXPECT_FALSE(engine.CanCompileLifted(f));
  try {
    engine.Compile(f, CompileOptions{});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("domain size"),
              std::string::npos)
        << error.what();
  }
}

TEST(LiftedCompile, GammaAcyclicHasNoCircuitForm) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("exists x exists y R(x,y)");
  CompileOptions options;
  options.domain_size = 2;
  options.method = Method::kGammaAcyclic;
  EXPECT_THROW(engine.Compile(f, options), std::invalid_argument);
}

TEST(LiftedCompile, GroundedQueryRejectsForeignDomainSizes) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x U(x)");
  CompileOptions options;
  options.domain_size = 3;
  options.method = Method::kGrounded;
  CompileResult result = engine.Compile(f, options);
  ASSERT_TRUE(result.compiled.has_value());
  EXPECT_EQ(result.compiled->Evaluate(3, {}), BigRational(1));
  try {
    result.compiled->Evaluate(4, {});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("domain size"),
              std::string::npos)
        << error.what();
  }
}

TEST(LiftedCompile, LiftedCircuitRejectsEmptyDomain) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y S(x,y)");
  CompileResult result = engine.Compile(f, CompileOptions{});
  ASSERT_TRUE(result.compiled.has_value());
  EXPECT_THROW(result.compiled->Evaluate(0, {}), std::invalid_argument);
  EXPECT_THROW(result.compiled->lifted_circuit().Evaluate(0),
               std::invalid_argument);
}

TEST(LiftedCompile, AutoCompilesGroundedAtDomainZero) {
  // A lifted circuit answers n >= 1 only, so kAuto at domain size 0 must
  // take the grounded compiler — the route `run` and serve already take —
  // rather than emit a circuit that cannot evaluate its own domain size.
  for (const char* text : {"forall x R(x)", "forall x exists y S(x,y)"}) {
    SCOPED_TRACE(text);
    Engine engine{logic::Vocabulary{}};
    logic::Formula f = engine.Parse(text);
    ASSERT_TRUE(engine.CanCompileLifted(f));
    CompileOptions options;
    options.domain_size = 0;
    CompileResult result = engine.Compile(f, options);
    ASSERT_TRUE(result.compiled.has_value());
    EXPECT_EQ(result.method, Method::kGrounded);
    EXPECT_EQ(result.compiled->kind(), CompiledQuery::Kind::kGrounded);
    EXPECT_EQ(result.compiled->Evaluate(0, {}), engine.WFOMC(f, 0).value);
  }
}

TEST(LiftedCompile, MemoryBytesAccountsForVocabularyStrings) {
  // Two structurally identical compiles whose only difference is the
  // length of a relation name: the byte accounting the serve LRU trusts
  // must grow with the name. (Regression: MemoryBytes once ignored the
  // vocabulary snapshot entirely.)
  std::string long_name(512, 'R');
  for (Method method : {Method::kGrounded, Method::kLiftedFO2}) {
    SCOPED_TRACE(api::ToString(method));
    auto compile = [&](const std::string& relation) {
      Engine engine{logic::Vocabulary{}};
      logic::Formula f = engine.Parse("forall x " + relation + "(x)");
      CompileOptions options;
      options.method = method;
      if (method == Method::kGrounded) options.domain_size = 2;
      CompileResult result = engine.Compile(f, options);
      EXPECT_TRUE(result.compiled.has_value());
      return result.compiled->MemoryBytes();
    };
    std::size_t small = compile("U");
    std::size_t large = compile(long_name);
    EXPECT_GE(large, small + long_name.size());
  }
}

// --- The .nnf counting-node dialect: fixpoint, values, positions. ---

TEST(LiftedNnfFormat, PrintIsAParserFixpointOverRandomCircuits) {
  std::uint64_t base = BaseSeed();
  for (std::uint64_t offset = 0; offset < 8; ++offset) {
    std::uint64_t seed = base + offset;
    RandomSentence random = MakeRandomFO2Sentence(seed);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    nnf::LiftedCircuit circuit =
        fo2::CompileLifted(random.sentence, random.vocabulary);

    io::LiftedNnfDocument document;
    BigRational at5 = circuit.Evaluate(5);
    document.circuit = std::move(circuit);
    document.expect = {{5, at5}};

    std::string once = io::PrintLiftedNnf(document);
    io::LiftedNnfDocument reparsed = io::ParseLiftedNnf(once, "rt.nnf");
    EXPECT_EQ(io::PrintLiftedNnf(reparsed), once);
    ASSERT_TRUE(reparsed.expect.has_value());
    EXPECT_EQ(reparsed.expect->first, 5u);
    EXPECT_EQ(reparsed.expect->second, at5);
    // The reparsed circuit is self-contained: same value at every n,
    // under the relation table's compile-time weights.
    for (std::uint64_t n = 1; n <= 6; ++n) {
      EXPECT_EQ(reparsed.circuit.Evaluate(n), document.circuit.Evaluate(n))
          << "n=" << n;
    }
    // And the dialect sniffer sees the lifted header.
    io::AnyNnfDocument any = io::ParseAnyNnf(once, "rt.nnf");
    EXPECT_TRUE(std::holds_alternative<io::LiftedNnfDocument>(any));
  }
}

// A lifted circuit of ¬Φ carries the `t` marker with the original
// relations' arities (the relation table records none), so the file
// alone answers WFOMC(Φ) = T(n) − Evaluate(n) at every n; without the
// marker the nodes keep their plain meaning, the count of ¬Φ.
TEST(LiftedNnfFormat, ComplementedCircuitRoundTripsThroughTheMarker) {
  logic::Vocabulary vocabulary;
  logic::Formula sentence =
      logic::Parse("exists x forall y (R(x,y) | U(y))", &vocabulary);
  vocabulary.SetWeights(vocabulary.Require("R"), BigRational(2),
                        BigRational::Fraction(-1, 3));
  vocabulary.AddRelation("Z", 1, BigRational(-3), BigRational(2));
  vocabulary.AddRelation("P", 0, BigRational(2), BigRational(-3));
  Engine engine(vocabulary);
  CompileResult compiled = engine.Compile(sentence, CompileOptions{});
  ASSERT_TRUE(compiled.compiled.has_value());
  ASSERT_EQ(compiled.compiled->kind(), CompiledQuery::Kind::kLifted);
  ASSERT_TRUE(compiled.compiled->complemented());

  const BigRational at3 = fo2::LiftedWFOMC(sentence, vocabulary, 3);
  // Nonzero, so a circuit that dropped the complement could not agree.
  ASSERT_FALSE(at3.IsZero());
  std::string text = io::PrintLiftedNnf(
      io::MakeLiftedNnfDocument(*compiled.compiled, {{3, at3}}));
  const std::string marker = "\nt 2 1 1 0\n";
  ASSERT_NE(text.find(marker), std::string::npos) << text.substr(0, 200);
  io::LiftedNnfDocument parsed = io::ParseLiftedNnf(text, "complemented.nnf");
  EXPECT_EQ(io::PrintLiftedNnf(parsed), text);
  for (std::uint64_t n = 1; n <= 5; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // The polarity-free lifted count of Φ itself.
    EXPECT_EQ(parsed.circuit.Evaluate(n),
              fo2::LiftedWFOMC(sentence, vocabulary, n));
    // The compiled query's own circuit, evaluated by the caller under
    // reweights, answers Φ as well.
    std::vector<RelationWeights> reweights = {
        {"R", BigRational(-1), BigRational(3)},
        {"Z", BigRational(0), BigRational(1)}};
    logic::Vocabulary reweighted = vocabulary;
    reweighted.SetWeights(reweighted.Require("R"), BigRational(-1),
                          BigRational(3));
    reweighted.SetWeights(reweighted.Require("Z"), BigRational(0),
                          BigRational(1));
    EXPECT_EQ(compiled.compiled->lifted_circuit().Evaluate(
                  n, compiled.compiled->LiftedWeights(reweights)),
              fo2::LiftedWFOMC(sentence, reweighted, n));
  }
  EXPECT_EQ(parsed.circuit.Evaluate(2),
            grounding::GroundedWFOMC(sentence, vocabulary, 2));

  io::LiftedNnfDocument plain =
      io::ParseLiftedNnf(text.erase(text.find(marker) + 1, 10));
  EXPECT_FALSE(plain.circuit.complement().has_value());
  EXPECT_EQ(plain.circuit.Evaluate(3),
            fo2::LiftedWFOMC(logic::ToNNF(logic::Not(sentence)), vocabulary,
                             3));
}

void ExpectLiftedErrorAt(const std::string& text, std::size_t line,
                         std::size_t column,
                         const std::string& message_piece) {
  try {
    io::ParseLiftedNnf(text, "bad.nnf");
    FAIL() << "expected ParseError for:\n" << text;
  } catch (const io::ParseError& error) {
    EXPECT_EQ(error.location().line, line) << error.what();
    EXPECT_EQ(error.location().column, column) << error.what();
    EXPECT_NE(error.message().find(message_piece), std::string::npos)
        << error.what();
  }
}

TEST(LiftedNnfFormat, ErrorPositions) {
  ExpectLiftedErrorAt("K 1\n", 1, 1, "expected 'lnnf V E R' header");
  ExpectLiftedErrorAt("lnnf 1 0\nK 1\n", 1, 8, "expected 3 value(s)");
  ExpectLiftedErrorAt("lnnf 1 0 0 9\nK 1\n", 1, 12,
                      "unexpected trailing token '9' on header line");
  ExpectLiftedErrorAt("lnnf 0 0 0\n", 1, 6, "at least one node");
  ExpectLiftedErrorAt("lnnf 1 0 4294967296\nK 1\n", 1, 1,
                      "header counts exceed 2^32");
  ExpectLiftedErrorAt("c only a comment\n", 1, 1,
                      "missing 'lnnf V E R' header");
  ExpectLiftedErrorAt("lnnf 1 0 0\nlnnf 1 0 0\n", 2, 1, "duplicate 'lnnf'");
  ExpectLiftedErrorAt("lnnf 1 0 0\nr R 1 1\nK 1\n", 2, 1,
                      "more relation lines than the header's 0");
  ExpectLiftedErrorAt("lnnf 1 0 1\nK 1\n", 2, 1, "relation count mismatch");
  ExpectLiftedErrorAt("lnnf 1 0 1\nr R 1/0 1\nK 1\n", 2, 5,
                      "zero denominator");
  ExpectLiftedErrorAt("lnnf 1 0 0\nK 1/0\n", 2, 3, "zero denominator");
  ExpectLiftedErrorAt("lnnf 1 0 0\nW 1\n", 2, 3, "out of range [1, 0]");
  ExpectLiftedErrorAt("lnnf 2 0 1\nr R 2 1\nW -2\nK 1\n", 3, 3,
                      "out of range [1, 1]");
  ExpectLiftedErrorAt("lnnf 1 0 0\nW 0\n", 2, 3, "out of range");
  ExpectLiftedErrorAt("lnnf 2 1 0\nK 1\nA 1 1\n", 3, 5,
                      "does not precede its parent");
  ExpectLiftedErrorAt("lnnf 2 1 0\nK 1\nA 2 0\n", 3, 3,
                      "child count 2 does not match the 1");
  ExpectLiftedErrorAt("lnnf 1 0 0\ne 0 1\nK 1\n", 2, 3,
                      "expect domain size must be >= 1");
  ExpectLiftedErrorAt("lnnf 1 0 0\ne 1 1\ne 2 1\nK 1\n", 3, 1,
                      "duplicate 'e'");
  ExpectLiftedErrorAt("lnnf 1 0 0\nC 0 0\n", 2, 3, "at least one cell");
  // A 1-cell counting node needs 1 + 1 = 2 children, not 1.
  ExpectLiftedErrorAt("lnnf 2 1 0\nK 1\nC 1 1 0\n", 3, 3,
                      "needs 2 children (C + C(C+1)/2), got 1");
  ExpectLiftedErrorAt("lnnf 1 0 0\nK 1\nK 1\n", 3, 1,
                      "more nodes than the header's 1");
  ExpectLiftedErrorAt("lnnf 2 0 0\nK 1\n", 2, 1, "node count mismatch");
  ExpectLiftedErrorAt("lnnf 1 5 0\nK 1\n", 2, 1, "edge count mismatch");
  ExpectLiftedErrorAt(
      "lnnf 1 0 0\nQ 3\n", 2, 1,
      "unknown line 'Q' (expected c, r, t, e, K, W, A, O, or C)");
  // The complement marker: arities 0..2, at most one per relation, once.
  ExpectLiftedErrorAt("lnnf 1 0 1\nr R 1 1\nt 3\nK 1\n", 3, 3,
                      "arity 3 out of range [0, 2]");
  ExpectLiftedErrorAt("lnnf 1 0 1\nr R 1 1\nt 1 1\nK 1\n", 3, 5,
                      "more arities than the header's 1 relations");
  ExpectLiftedErrorAt("lnnf 1 0 1\nr R 1 1\nt 1\nt 1\nK 1\n", 4, 1,
                      "duplicate 't'");
  ExpectLiftedErrorAt("lnnf 1 0 1\nr R 1 1\nt x\nK 1\n", 3, 3, "arity");
}

TEST(LiftedNnfFormat, MutationFuzzNeverCrashes) {
  testutil::ExpectMutantsParseOrFail(
      "c demo\nlnnf 7 6 1\nr U 2 1/3\nt 1\ne 3 5\nW 1\nW -1\nK 1\nK 1/2\n"
      "O 2 0 1\nA 2 3 4\nC 1 2 5 2\n",
      "0123456789 -/\nlnrteKWAOCU", 2000, [](const std::string& text) {
        return io::PrintLiftedNnf(io::ParseLiftedNnf(text, "mutated.nnf"));
      });
}

TEST(LiftedNnfFormat, HandWrittenCountingCircuitEvaluates) {
  // One unary relation U(w=2, w̄=1), one cell circuit: C = 2 cells
  // {U, ¬U} with unit pair interactions — so Evaluate(n) must be
  // Σ_k (n choose k) 2^k = 3^n.
  const char* text =
      "c 3^n by hand\n"
      "lnnf 4 5 1\n"
      "r U 2 1\n"
      "e 4 81\n"
      "W 1\n"
      "W -1\n"
      "K 1\n"
      "C 2 5 0 1 2 2 2\n";
  io::LiftedNnfDocument document = io::ParseLiftedNnf(text, "hand.nnf");
  ASSERT_TRUE(document.expect.has_value());
  EXPECT_EQ(document.expect->first, 4u);
  for (std::uint64_t n = 1; n <= 6; ++n) {
    BigRational three_to_n(1);
    for (std::uint64_t i = 0; i < n; ++i) three_to_n *= BigRational(3);
    EXPECT_EQ(document.circuit.Evaluate(n), three_to_n) << "n=" << n;
  }
  EXPECT_EQ(document.circuit.Evaluate(document.expect->first),
            document.expect->second);
  // Reweighting U to (1, 1) turns 3^n into 2^n.
  nnf::LiftedCircuit::Weights unit = {{BigRational(1), BigRational(1)}};
  EXPECT_EQ(document.circuit.Evaluate(3, unit), BigRational(8));
}

}  // namespace
}  // namespace swfomc
