// Knowledge-compilation subsystem: the traced circuits must be (a)
// well-formed d-DNNF — structurally audited — and (b) *evaluation-
// equivalent* to the DPLL counter under every weight vector, which the
// differential checks here enforce bit-for-bit: for the whole golden
// corpus and for seeded random CNFs, Compile(...).Evaluate(w) must equal
// a fresh recount with w, including zero and negative weights (the
// weight regimes where a naive trace — one that keeps the counter's
// zero-weight pruning — would silently drop subcircuits).
//
// Seeds are deterministic (committed base seed 1) but rotatable via
// SWFOMC_FUZZ_SEED, like the other fuzz suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "api/engine.h"
#include "grounding/grounded_wfomc.h"
#include "grounding/lineage.h"
#include "grounding/tuple_index.h"
#include "io/diagnostics.h"
#include "io/model_format.h"
#include "io/nnf_format.h"
#include "io/runner.h"
#include "logic/parser.h"
#include "logic/transform.h"
#include "nnf/circuit.h"
#include "nnf/circuit_builder.h"
#include "prop/tseitin.h"
#include "test_util.h"
#include "wmc/dpll_counter.h"

namespace swfomc {
namespace {

using api::CompiledQuery;
using api::Engine;
using api::Method;
using api::RelationWeights;
using io::ModelSpec;
using io::NnfDocument;
using nnf::Circuit;
using nnf::CircuitBuilder;
using nnf::NodeKind;
using numeric::BigRational;
using testutil::FuzzBaseSeed;
using testutil::RandomCnf;
using testutil::RandomWeights;
using wmc::DpllCounter;
using wmc::WeightMap;

constexpr std::uint64_t kDefaultBaseSeed = 1;

std::uint64_t BaseSeed() {
  static std::uint64_t seed = [] {
    std::uint64_t value = FuzzBaseSeed(kDefaultBaseSeed);
    std::cout << "[nnf_test] SWFOMC_FUZZ_SEED base = " << value << std::endl;
    return value;
  }();
  return seed;
}

// Compiles a raw CNF by running the counter in tracing mode.
Circuit TraceCnf(const prop::CnfFormula& cnf, const WeightMap& weights,
                 BigRational* count) {
  CircuitBuilder builder(cnf.variable_count);
  DpllCounter::Options options;
  options.trace_sink = &builder;
  DpllCounter counter(cnf, weights, options);
  *count = counter.Count();
  return builder.Finish();
}

// The per-relation weight regimes every engine-compiled circuit is
// re-evaluated under: unit (FOMC), fractional, negative (Skolemization's
// regime), zero — which only works if tracing disabled zero pruning —
// rationals whose phases share a denominator factor (lcm 12, product
// 24), and weights a few units off ±2^62, where every product crosses
// the BigInt inline/heap seam.
std::vector<std::vector<RelationWeights>> WeightRegimes(
    const logic::Vocabulary& vocabulary) {
  constexpr std::int64_t kBoundary = std::int64_t{1} << 62;
  std::vector<std::vector<RelationWeights>> regimes(6);
  for (logic::RelationId id = 0; id < vocabulary.size(); ++id) {
    const std::string& name = vocabulary.name(id);
    auto offset = static_cast<std::int64_t>(id);
    regimes[0].push_back({name, BigRational(1), BigRational(1)});
    regimes[1].push_back(
        {name, BigRational(3), BigRational::Fraction(1, 2)});
    regimes[2].push_back({name, BigRational(-1), BigRational(2)});
    regimes[3].push_back({name, BigRational(0), BigRational(1)});
    regimes[4].push_back({name, BigRational::Fraction(1, 4 + offset),
                          BigRational::Fraction(-5, 6)});
    regimes[5].push_back({name, BigRational(kBoundary - 3 - offset),
                          BigRational::Fraction(-kBoundary + 5, 7)});
  }
  return regimes;
}

// The same weights through a fresh grounded recount (the DpllCounter).
BigRational Recount(const logic::Vocabulary& vocabulary,
                    const logic::Formula& sentence, std::uint64_t n,
                    const std::vector<RelationWeights>& regime) {
  logic::Vocabulary reweighted = vocabulary;
  for (const RelationWeights& weights : regime) {
    reweighted.SetWeights(reweighted.Require(weights.relation),
                          weights.positive, weights.negative);
  }
  // The grounded pipeline called directly, so the recount never shares
  // the engine's polarity step with the circuit it checks.
  return grounding::GroundedWFOMC(sentence, reweighted, n);
}

// The grounded d-DNNF of `sentence` at domain size n (ungoverned, so it
// always finishes).
CompiledQuery CompileGrounded(Engine* engine, const logic::Formula& sentence,
                              std::uint64_t n) {
  return *engine
              ->Compile(sentence,
                        {.domain_size = n, .method = Method::kGrounded})
              .compiled;
}

std::vector<std::string> GoldenModelPaths() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(SWFOMC_GOLDEN_MODELS_DIR)) {
    if (entry.path().extension() == ".model") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// --- Golden corpus: compile once, recount under many weights -------------

TEST(Compile, GoldenCorpusBitIdenticalAcrossWeightRegimes) {
  std::vector<std::string> paths = GoldenModelPaths();
  ASSERT_FALSE(paths.empty());
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    ModelSpec spec = io::LoadModelFile(path);
    Engine engine(spec.vocabulary);
    CompiledQuery compiled =
        CompileGrounded(&engine, spec.sentence, spec.domain_hi);

    // The compile-time count is the grounded count; the corpus pins it.
    ASSERT_TRUE(spec.expect.has_value());
    EXPECT_EQ(compiled.compile_count(), *spec.expect);
    EXPECT_EQ(compiled.Evaluate(spec.domain_hi, {}),
              compiled.compile_count());

    // Structural d-DNNF audit.
    std::string violation;
    EXPECT_TRUE(compiled.circuit().Validate(&violation)) << violation;

    // Differential: circuit evaluation vs. a fresh grounded recount.
    for (const std::vector<RelationWeights>& regime :
         WeightRegimes(spec.vocabulary)) {
      EXPECT_EQ(compiled.Evaluate(spec.domain_hi, regime),
                Recount(spec.vocabulary, spec.sentence, spec.domain_hi,
                        regime))
          << "regime starting (" << regime.front().positive.ToString()
          << ", " << regime.front().negative.ToString() << ")";
    }
  }
}

TEST(Compile, SharesCacheHitSubcircuits) {
  // The n=3 triangle lineage has repeated components; the trace must
  // resolve those cache hits to shared nodes, not re-expansions, so the
  // circuit is a DAG strictly smaller than the unshared search tree.
  // Engine::Compile counts the triangle's complement, whose search hits
  // no cache entry, so the triangle's own CNF is traced here directly.
  logic::Vocabulary vocabulary;
  logic::Formula sentence = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocabulary);
  grounding::TupleIndex index(vocabulary, 3);
  prop::TseitinResult tseitin = prop::TseitinTransform(
      grounding::GroundLineage(sentence, index),
      static_cast<std::uint32_t>(index.TupleCount()));
  WeightMap weights =
      grounding::SymmetricGroundWeights(index, tseitin.cnf.variable_count);
  CircuitBuilder builder(tseitin.cnf.variable_count);
  DpllCounter::Options options;
  options.trace_sink = &builder;
  DpllCounter counter(tseitin.cnf, weights, options);
  BigRational count = counter.Count();
  const DpllCounter::Stats stats = counter.stats();
  Circuit circuit =
      builder.Finish(static_cast<std::uint32_t>(index.TupleCount()));
  EXPECT_EQ(circuit.Evaluate(weights), count);
  EXPECT_EQ(count, grounding::GroundedWFOMC(sentence, vocabulary, 3));
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_entries, stats.cache_insertions);
  // Every insertion is a distinct component; the node count is bounded
  // by a constant multiple of the distinct-component set plus literals.
  EXPECT_LT(circuit.node_count(),
            10 * (stats.cache_entries + 1) + 2 * circuit.variable_count());
}

TEST(Compile, TracedCountMatchesUntracedOnLargeCnf) {
  prop::CnfFormula cnf;
  cnf.variable_count = 40;
  std::mt19937_64 rng(7);
  cnf = RandomCnf(&rng, 40, 60, 3);
  WeightMap weights(cnf.variable_count);
  CircuitBuilder builder(cnf.variable_count);
  DpllCounter::Options options;
  options.trace_sink = &builder;
  DpllCounter counter(cnf, weights, options);
  BigRational traced = counter.Count();
  EXPECT_EQ(traced, DpllCounter(cnf, weights).Count());
  Circuit circuit = builder.Finish();
  EXPECT_EQ(circuit.Evaluate(weights), traced);
}

// --- Random CNFs: trace, audit, evaluate under fresh weights -------------

TEST(Compile, RandomCnfDifferential) {
  std::uint64_t base = BaseSeed();
  ::testing::Test::RecordProperty("fuzz_base_seed",
                                  static_cast<int64_t>(base));
  for (std::uint64_t offset = 0; offset < 24; ++offset) {
    std::uint64_t seed = base + offset;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::uint32_t variables = 3 + static_cast<std::uint32_t>(rng() % 8);
    prop::CnfFormula cnf =
        RandomCnf(&rng, variables, 4 + rng() % 10, 1 + rng() % 4);
    WeightMap compile_weights =
        RandomWeights(&rng, variables, /*allow_negative=*/true);

    BigRational compile_count;
    Circuit circuit = TraceCnf(cnf, compile_weights, &compile_count);
    EXPECT_EQ(circuit.Evaluate(compile_weights), compile_count);
    std::string violation;
    ASSERT_TRUE(circuit.Validate(&violation)) << violation;

    // Four fresh weight maps: one with forced zeros, one whose phases
    // share a denominator factor (1/4 and −5/6: lcm 12, product 24).
    for (int regime = 0; regime < 4; ++regime) {
      WeightMap weights =
          RandomWeights(&rng, variables, /*allow_negative=*/regime != 0);
      if (regime == 2) {
        weights.Set(0, BigRational(0), BigRational(1));
        weights.Set(variables - 1, BigRational(2), BigRational(0));
      }
      if (regime == 3) {
        weights.Set(0, BigRational::Fraction(1, 4),
                    BigRational::Fraction(-5, 6));
        weights.Set(variables - 1, BigRational::Fraction(-3, 8),
                    BigRational::Fraction(7, 12));
      }
      DpllCounter recount(cnf, weights);
      EXPECT_EQ(circuit.Evaluate(weights), recount.Count())
          << "regime " << regime;
    }
  }
}

TEST(Compile, DegenerateFormulas) {
  // No clauses: every variable is free, the circuit is a product of
  // (w + w̄) factors.
  prop::CnfFormula free_cnf;
  free_cnf.variable_count = 3;
  WeightMap weights(3);
  weights.Set(0, BigRational(2), BigRational(3));
  weights.Set(1, BigRational::Fraction(1, 2), BigRational::Fraction(3, 2));
  BigRational count;
  Circuit circuit = TraceCnf(free_cnf, weights, &count);
  EXPECT_EQ(count, BigRational(5) * BigRational(2) * BigRational(2));
  EXPECT_EQ(circuit.Evaluate(weights), count);
  std::string violation;
  EXPECT_TRUE(circuit.Validate(&violation)) << violation;

  // An empty clause: FALSE for every weight vector.
  prop::CnfFormula unsat;
  unsat.variable_count = 2;
  unsat.clauses.push_back({});
  Circuit false_circuit = TraceCnf(unsat, WeightMap(2), &count);
  EXPECT_TRUE(count.IsZero());
  EXPECT_EQ(false_circuit.node_count(), 1u);
  WeightMap other(2);
  other.Set(0, BigRational(7), BigRational(-2));
  EXPECT_TRUE(false_circuit.Evaluate(other).IsZero());

  // A unit clause: root propagation, literal factor times free factor.
  prop::CnfFormula unit;
  unit.variable_count = 2;
  unit.clauses.push_back({prop::MakeLit(0, true)});
  WeightMap unit_weights(2);
  unit_weights.Set(0, BigRational(5), BigRational(11));
  unit_weights.Set(1, BigRational(2), BigRational(3));
  Circuit unit_circuit = TraceCnf(unit, unit_weights, &count);
  EXPECT_EQ(count, BigRational(25));
  EXPECT_EQ(unit_circuit.Evaluate(unit_weights), BigRational(25));
}

// --- The structural audit must actually reject malformed circuits -------

TEST(Circuit, ConstructorRejectsNonDecomposableAnd) {
  // AND(x2, OR(x1, ¬x1), x1) shares variable 0 between its second and
  // third children; the error names the AND and the variable.
  std::vector<Circuit::Node> nodes(5);
  nodes[0] = {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(0, true)};
  nodes[1] = {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(0, false)};
  nodes[2] = {.kind = NodeKind::kOr, .children_begin = 0, .children_end = 2};
  nodes[3] = {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(1, true)};
  nodes[4] = {.kind = NodeKind::kAnd, .children_begin = 2, .children_end = 5};
  try {
    Circuit(2, std::move(nodes), {0, 1, 3, 2, 0}, 4);
    FAIL() << "expected NonDecomposableAnd";
  } catch (const nnf::NonDecomposableAnd& error) {
    EXPECT_EQ(error.node, 4u);
    EXPECT_EQ(error.variable, 0u);
    EXPECT_NE(std::string(error.what()).find("not decomposable"),
              std::string::npos)
        << error.what();
  }
  // A plain AND(x1, x1) too, as an std::invalid_argument.
  std::vector<Circuit::Node> twice(2);
  twice[0] = {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(0, true)};
  twice[1] = {.kind = NodeKind::kAnd, .children_begin = 0, .children_end = 2};
  EXPECT_THROW(Circuit(1, std::move(twice), {0, 0}, 1),
               std::invalid_argument);
}

TEST(Validate, RejectsNonDeterministicOr) {
  // OR(x1, x2) — the children do not conflict on any variable.
  std::vector<Circuit::Node> nodes(3);
  nodes[0] = {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(0, true)};
  nodes[1] = {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(1, true)};
  nodes[2] = {.kind = NodeKind::kOr, .children_begin = 0, .children_end = 2};
  Circuit circuit(2, std::move(nodes), {0, 1}, 2);
  std::string violation;
  EXPECT_FALSE(circuit.Validate(&violation));
  EXPECT_NE(violation.find("not deterministic"), std::string::npos)
      << violation;
}

TEST(Validate, RejectsDecisionOrWhoseChildSkipsTheDecision) {
  // OR deciding variable 2 with a child fixing only variable 1.
  std::vector<Circuit::Node> nodes(3);
  nodes[0] = {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(0, true)};
  nodes[1] = {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(1, false)};
  nodes[2] = {.kind = NodeKind::kOr,
              .decision = 1,
              .children_begin = 0,
              .children_end = 2};
  Circuit circuit(2, std::move(nodes), {0, 1}, 2);
  std::string violation;
  EXPECT_FALSE(circuit.Validate(&violation));
  EXPECT_NE(violation.find("does not fix the decision"), std::string::npos)
      << violation;
}

TEST(Validate, AcceptsDecisionlessDeterministicOr) {
  // c2d-style OR with decision 0 but conflicting surface literals.
  NnfDocument document = io::ParseNnf(
      "nnf 3 2 1\n"
      "L 1\n"
      "L -1\n"
      "O 0 2 0 1\n");
  std::string violation;
  EXPECT_TRUE(document.circuit.Validate(&violation)) << violation;
  EXPECT_EQ(document.circuit.Evaluate(WeightMap(1)), BigRational(2));
}

TEST(Circuit, ConstructorRejectsForwardReferences) {
  std::vector<Circuit::Node> nodes(2);
  nodes[0] = {.kind = NodeKind::kAnd, .children_begin = 0, .children_end = 1};
  nodes[1] = {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(0, true)};
  EXPECT_THROW(Circuit(1, std::move(nodes), {1}, 1), std::invalid_argument);
}

// --- .nnf format ---------------------------------------------------------

TEST(NnfFormat, PrintIsAParserFixpoint) {
  std::uint64_t base = BaseSeed();
  for (std::uint64_t offset = 0; offset < 8; ++offset) {
    std::mt19937_64 rng(base + 1000 + offset);
    std::uint32_t variables = 3 + static_cast<std::uint32_t>(rng() % 6);
    prop::CnfFormula cnf =
        RandomCnf(&rng, variables, 3 + rng() % 8, 1 + rng() % 3);
    WeightMap weights =
        RandomWeights(&rng, variables, /*allow_negative=*/true);
    BigRational count;
    NnfDocument document;
    document.circuit = TraceCnf(cnf, weights, &count);
    document.weights = weights;
    document.weights.EnsureSize(document.circuit.variable_count());
    document.expect = count;

    std::string once = io::PrintNnf(document);
    NnfDocument reparsed = io::ParseNnf(once, "roundtrip.nnf");
    EXPECT_EQ(io::PrintNnf(reparsed), once);
    ASSERT_TRUE(reparsed.expect.has_value());
    EXPECT_EQ(*reparsed.expect, count);
    EXPECT_EQ(reparsed.circuit.Evaluate(reparsed.weights), count);
  }
}

void ExpectParseErrorAt(const std::string& text, std::size_t line,
                        std::size_t column,
                        const std::string& message_piece) {
  try {
    io::ParseNnf(text, "bad.nnf");
    FAIL() << "expected ParseError for:\n" << text;
  } catch (const io::ParseError& error) {
    EXPECT_EQ(error.location().line, line) << error.what();
    EXPECT_EQ(error.location().column, column) << error.what();
    EXPECT_NE(error.message().find(message_piece), std::string::npos)
        << error.what();
  }
}

TEST(NnfFormat, ErrorPositions) {
  ExpectParseErrorAt("L 1\n", 1, 1, "expected 'nnf V E n' header");
  ExpectParseErrorAt("nnf 1 0\nL 1\n", 1, 7, "expected 3 value(s)");
  ExpectParseErrorAt("nnf 1 0 1 9\nL 1\n", 1, 11, "unexpected trailing token");
  ExpectParseErrorAt("nnf 0 0 1\n", 1, 5, "at least one node");
  ExpectParseErrorAt("nnf 1 0 4294967296\nA 0\n", 1, 1,
                     "header counts exceed 2^32");
  ExpectParseErrorAt("c only a comment\n", 1, 1, "missing 'nnf V E n' header");
  ExpectParseErrorAt("nnf 1 0 1\nnnf 1 0 1\n", 2, 1, "duplicate 'nnf'");
  ExpectParseErrorAt("nnf 1 0 1\nL 2\n", 2, 3, "out of range");
  ExpectParseErrorAt("nnf 1 0 1\nL 0\n", 2, 3, "out of range");
  ExpectParseErrorAt("nnf 2 1 1\nL 1\nA 1 1\n", 3, 5,
                     "does not precede its parent");
  ExpectParseErrorAt("nnf 2 1 1\nL 1\nA 2 0\n", 3, 3,
                     "does not match");
  ExpectParseErrorAt("nnf 3 2 2\nL 1\nc a comment\nA 2 0 0\nL 2\n", 4, 1,
                     "AND node 1 is not decomposable: children share "
                     "variable 1");
  ExpectParseErrorAt("nnf 1 0 1\nw 1 1/2\nL 1\n", 2, 5, "expected 3");
  ExpectParseErrorAt("nnf 1 0 1\nw 1 1 1\nw 1 2 2\nL 1\n", 3, 3,
                     "set twice");
  ExpectParseErrorAt("nnf 1 0 1\nw 2 1 1\nL 1\n", 2, 3, "out of range");
  ExpectParseErrorAt("nnf 1 0 1\nw 1 1/0 1\nL 1\n", 2, 5, "zero denominator");
  ExpectParseErrorAt("nnf 1 0 1\ne 1/0\nL 1\n", 2, 3, "zero denominator");
  ExpectParseErrorAt("nnf 1 0 1\ne 1\ne 2\nL 1\n", 3, 1, "duplicate 'e'");
  ExpectParseErrorAt("nnf 1 0 1\nL 1\nL 1\n", 3, 1, "more nodes");
  ExpectParseErrorAt("nnf 1 0 1\nO 1 0\n", 2, 3,
                     "must use decision 0");
  ExpectParseErrorAt("nnf 1 0 1\nQ 3\n", 2, 1, "unknown line");
  ExpectParseErrorAt("nnf 1 0 1\nt\nL 1\n", 2, 1, "expected 1 value(s)");
  ExpectParseErrorAt("nnf 1 0 1\nt 2\nL 1\n", 2, 3,
                     "tuple count 2 exceeds the 1 variables");
  ExpectParseErrorAt("nnf 1 0 1\nt 1\nt 1\nL 1\n", 3, 1, "duplicate 't'");
  // The count mismatches are end-of-document errors reported at the last
  // real line — the trailing newline must not shift them onto a phantom
  // empty line 3.
  ExpectParseErrorAt("nnf 2 0 1\nL 1\n", 2, 1, "node count mismatch");
  ExpectParseErrorAt("nnf 1 5 1\nL 1\n", 2, 1, "edge count mismatch");
  ExpectParseErrorAt("nnf 2 0 1\nL 1", 2, 1, "node count mismatch");
}

TEST(NnfFormat, MutationFuzzNeverCrashes) {
  testutil::ExpectMutantsParseOrFail(
      "c demo\nnnf 5 4 2\nw 1 1/2 -3\nt 1\ne 7/2\nL 1\nL -1\nL 2\n"
      "O 1 2 0 1\nA 2 3 2\n",
      "0123456789 -/\nnLAOwetc", 2000, [](const std::string& text) {
        return io::PrintNnf(io::ParseNnf(text, "mutated.nnf"));
      });
}

TEST(NnfFormat, ParsesConstantsAndComments) {
  NnfDocument trivial = io::ParseNnf(
      "c a comment\n"
      "nnf 1 0 0\n"
      "c another\n"
      "A 0\n");
  EXPECT_EQ(trivial.circuit.node(0).kind, NodeKind::kTrue);
  EXPECT_EQ(trivial.circuit.Evaluate(WeightMap(0)), BigRational(1));

  NnfDocument contradiction = io::ParseNnf("nnf 1 0 2\nO 0 0\n");
  EXPECT_EQ(contradiction.circuit.node(0).kind, NodeKind::kFalse);
  EXPECT_TRUE(contradiction.circuit.Evaluate(WeightMap(2)).IsZero());
}

// --- Evaluation tape ----------------------------------------------------

constexpr const char* kTriangle =
    "exists x exists y exists z (R(x,y) & R(y,z) & R(z,x))";
constexpr const char* kFourCycle =
    "exists x1 exists x2 exists x3 exists x4 "
    "(R(x1,x2) & R(x2,x3) & R(x3,x4) & R(x4,x1))";
constexpr const char* kTypedTriangle =
    "exists x exists y exists z (R(x,y) & S(y,z) & T(z,x))";

TEST(Tape, EngineCompiledCircuitsMatchRecountUnderEveryRegime) {
  struct Family {
    const char* sentence;
    std::uint64_t max_n;
  } families[] = {{kTriangle, 4}, {kFourCycle, 4}, {kTypedTriangle, 3}};
  for (const Family& family : families) {
    logic::Vocabulary vocabulary;
    logic::Formula sentence = logic::Parse(family.sentence, &vocabulary);
    Engine engine(vocabulary);
    Circuit::EvalArena arena;
    for (std::uint64_t n = 1; n <= family.max_n; ++n) {
      SCOPED_TRACE(std::string(family.sentence) + " n=" + std::to_string(n));
      CompiledQuery compiled = CompileGrounded(&engine, sentence, n);
      const Circuit& circuit = compiled.circuit();
      // The grounded compiler names its Tseitin auxiliaries, and the
      // tape keeps far fewer live values than the circuit has nodes.
      EXPECT_EQ(circuit.auxiliary_begin(), compiled.tuple_count());
      EXPECT_LE(circuit.tape_size(), circuit.node_count());
      if (n >= 3) {
        EXPECT_LT(4 * circuit.tape_slots(), circuit.node_count());
      }
      std::vector<std::vector<RelationWeights>> regimes =
          WeightRegimes(vocabulary);
      // Negative, zero, shared-denominator and ±2^62 weights. The
      // circuit itself, evaluated by a caller under GroundWeights the way
      // a server replays a cached circuit, answers Φ too, although its
      // nodes count ¬Φ.
      ASSERT_TRUE(compiled.complemented());
      for (const std::vector<RelationWeights>& regime :
           {regimes[2], regimes[3], regimes[4], regimes[5]}) {
        const BigRational expected = Recount(vocabulary, sentence, n, regime);
        EXPECT_EQ(compiled.Evaluate(n, regime, &arena), expected)
            << "regime starting (" << regime.front().positive.ToString()
            << ", " << regime.front().negative.ToString() << ")";
        EXPECT_EQ(circuit.Evaluate(compiled.GroundWeights(regime), &arena),
                  expected);
      }
    }
  }
}

TEST(Tape, ReweightingAnAuxiliaryThrows) {
  logic::Vocabulary vocabulary;
  logic::Formula sentence = logic::Parse(kTriangle, &vocabulary);
  Engine engine(vocabulary);
  CompiledQuery compiled = CompileGrounded(&engine, sentence, 3);
  const Circuit& circuit = compiled.circuit();
  ASSERT_LT(circuit.auxiliary_begin(), circuit.variable_count());
  WeightMap weights = compiled.GroundWeights({});
  // The circuit's nodes count the triangle's complement, and the circuit
  // subtracts them from the total weight of the tuples.
  ASSERT_TRUE(compiled.complemented());
  ASSERT_EQ(circuit.complement(),
            std::optional<std::uint32_t>(compiled.tuple_count()));
  const BigRational direct = grounding::GroundedWFOMC(sentence, vocabulary, 3);
  EXPECT_EQ(circuit.Evaluate(weights), direct);
  WeightMap first = weights;
  first.Set(circuit.auxiliary_begin(), BigRational(2), BigRational(1));
  EXPECT_THROW(circuit.Evaluate(first), std::invalid_argument);
  WeightMap last = weights;
  last.Set(circuit.variable_count() - 1, BigRational(1), BigRational(0));
  Circuit::EvalArena arena;
  EXPECT_THROW(circuit.Evaluate(last, &arena), std::invalid_argument);
  // A rejected call leaves the arena usable.
  EXPECT_EQ(circuit.Evaluate(weights, &arena), direct);

  // The same circuit parsed back from `.nnf` names no auxiliaries, so it
  // takes any weights: it answers T − WMC of the traced ¬Φ CNF, over
  // every variable, which a fresh DpllCounter recount of that CNF pins.
  NnfDocument document;
  document.circuit = circuit;
  document.weights = weights;
  NnfDocument parsed = io::ParseNnf(io::PrintNnf(document));
  EXPECT_EQ(parsed.circuit.auxiliary_begin(), parsed.circuit.variable_count());
  grounding::TupleIndex index(vocabulary, 3);
  prop::TseitinResult negation = prop::TseitinTransform(
      grounding::GroundLineage(logic::ToNNF(logic::Not(sentence)), index),
      static_cast<std::uint32_t>(index.TupleCount()));
  ASSERT_EQ(negation.cnf.variable_count, circuit.variable_count());
  for (const WeightMap& reweighted : {first, last}) {
    BigRational total(1);
    for (prop::VarId v = 0; v < compiled.tuple_count(); ++v) {
      total *= reweighted.Get(v).Total();
    }
    EXPECT_EQ(parsed.circuit.Evaluate(reweighted),
              total - DpllCounter(negation.cnf, reweighted).Count());
  }

  // So does a circuit traced from a raw CNF, auxiliary-looking tail
  // variables included.
  std::mt19937_64 rng(BaseSeed() + 77);
  prop::CnfFormula cnf = RandomCnf(&rng, 8, 10, 3);
  BigRational count;
  Circuit traced = TraceCnf(cnf, WeightMap(8), &count);
  EXPECT_EQ(traced.auxiliary_begin(), traced.variable_count());
  WeightMap random = RandomWeights(&rng, 8, /*allow_negative=*/true);
  EXPECT_EQ(traced.Evaluate(random), DpllCounter(cnf, random).Count());
}

// A circuit of ¬Φ carries the `t` marker with the tuple count, so the
// file alone answers WFOMC(Φ) = T − WMC under any weights; without the
// marker the same nodes keep their plain meaning, WMC of the circuit.
TEST(NnfFormat, ComplementedCircuitRoundTripsThroughTheMarker) {
  logic::Vocabulary vocabulary;
  logic::Formula sentence = logic::Parse(kTriangle, &vocabulary);
  vocabulary.AddRelation("Z", 1, BigRational(-3), BigRational(2));
  vocabulary.AddRelation("P", 0, BigRational(2), BigRational(-3));
  Engine engine(vocabulary);
  CompiledQuery compiled = CompileGrounded(&engine, sentence, 3);
  ASSERT_TRUE(compiled.complemented());
  ASSERT_EQ(compiled.tuple_count(), 9u + 3u + 1u);
  const BigRational direct = grounding::GroundedWFOMC(sentence, vocabulary, 3);
  ASSERT_FALSE(direct.IsZero());
  EXPECT_EQ(compiled.compile_count(), direct);

  std::string text = io::PrintNnf(io::MakeNnfDocument(compiled, direct));
  const std::string marker = "\nt 13\n";
  ASSERT_NE(text.find(marker), std::string::npos) << text.substr(0, 200);
  NnfDocument parsed = io::ParseNnf(text, "complemented.nnf");
  EXPECT_EQ(io::PrintNnf(parsed), text);
  EXPECT_EQ(parsed.circuit.complement(), std::optional<std::uint32_t>(13));
  ASSERT_TRUE(parsed.expect.has_value());
  EXPECT_EQ(parsed.circuit.Evaluate(parsed.weights), *parsed.expect);
  for (const std::vector<RelationWeights>& regime :
       WeightRegimes(vocabulary)) {
    parsed.weights = compiled.GroundWeights(regime);
    EXPECT_EQ(parsed.circuit.Evaluate(parsed.weights),
              Recount(vocabulary, sentence, 3, regime));
  }

  NnfDocument plain = io::ParseNnf(text.erase(text.find(marker) + 1, 5));
  EXPECT_FALSE(plain.circuit.complement().has_value());
  EXPECT_EQ(plain.circuit.Evaluate(plain.weights),
            grounding::GroundedWFOMC(logic::ToNNF(logic::Not(sentence)),
                                     vocabulary, 3));
}

TEST(Tape, LoweringEdgeCases) {
  WeightMap weights(3);
  weights.Set(0, BigRational::Fraction(2, 3), BigRational(5));
  weights.Set(1, BigRational(-7), BigRational::Fraction(1, 4));
  weights.Set(2, BigRational(11), BigRational(13));
  // Every circuit below declares 3 variables, and its root is smoothed
  // over the ones it does not mention: one shared sum op per variable,
  // then one product op.
  const BigRational total1 = BigRational::Fraction(17, 3);
  const BigRational total2 = BigRational::Fraction(-27, 4);
  const BigRational total3 = BigRational(24);

  // A literal root: ¬x2 times the sums of x1 and x3.
  Circuit literal = io::ParseNnf("nnf 1 0 3\nL -2\n").circuit;
  EXPECT_EQ(literal.tape_size(), 3u);
  EXPECT_EQ(literal.tape_slots(), 3u);
  EXPECT_EQ(literal.Evaluate(weights),
            BigRational::Fraction(1, 4) * total1 * total3);

  // TRUE folds to the constant 1, which leaves the product of the three
  // sums; FALSE folds to 0, which needs no smoothing.
  Circuit true_root = io::ParseNnf("nnf 1 0 3\nA 0\n").circuit;
  EXPECT_EQ(true_root.tape_size(), 4u);
  EXPECT_EQ(true_root.Evaluate(weights), total1 * total2 * total3);
  Circuit false_root = io::ParseNnf("nnf 1 0 3\nO 0 0\n").circuit;
  EXPECT_EQ(false_root.tape_size(), 0u);
  EXPECT_TRUE(false_root.Evaluate(weights).IsZero());

  // An alias chain: AND(TRUE, AND(OR(x1, ¬x1))) keeps only the OR, which
  // the root's smoothing multiplies by the sums of x2 and x3.
  Circuit chain = io::ParseNnf(
                      "nnf 6 5 3\n"
                      "L 1\n"
                      "L -1\n"
                      "O 1 2 0 1\n"
                      "A 1 2\n"
                      "A 0\n"
                      "A 2 4 3\n")
                      .circuit;
  EXPECT_EQ(chain.tape_size(), 4u);
  EXPECT_EQ(chain.tape_slots(), 4u);
  EXPECT_EQ(chain.Evaluate(weights), total1 * total2 * total3);

  // ORs with constant children: OR(TRUE, TRUE) folds to 2, and a zero
  // summand AND(x1, FALSE) leaves OR(0, ¬x1) an alias of ¬x1. The root
  // AND(2, ¬x1, x2) becomes one op with coefficient 2, then the sum of x3
  // and its product with the root.
  Circuit constants = io::ParseNnf(
                          "nnf 9 9 3\n"
                          "A 0\n"
                          "O 0 2 0 0\n"
                          "L 1\n"
                          "O 0 0\n"
                          "A 2 2 3\n"
                          "L -1\n"
                          "O 1 2 4 5\n"
                          "L 2\n"
                          "A 3 1 6 7\n")
                          .circuit;
  EXPECT_EQ(constants.tape_size(), 3u);
  EXPECT_EQ(constants.tape_slots(), 3u);
  EXPECT_EQ(constants.Evaluate(weights),
            BigRational(2) * BigRational(5) * BigRational(-7) * total3);

  // Nodes outside the root's cone are dropped: the OR over variable 3
  // is lowered but no live op reads it, so the root OR stays with its
  // smoothing — the sums of x2 and x3 and their product with the root.
  Circuit unreachable = io::ParseNnf(
                            "nnf 6 4 3\n"
                            "L 1\n"
                            "L 3\n"
                            "L -3\n"
                            "O 3 2 1 2\n"
                            "L -1\n"
                            "O 1 2 0 4\n")
                            .circuit;
  EXPECT_EQ(unreachable.tape_size(), 4u);
  EXPECT_EQ(unreachable.tape_slots(), 4u);
  EXPECT_EQ(unreachable.Evaluate(weights), total1 * total2 * total3);

  // So is an op only a folded-away zero reads: AND(OR(x1, ¬x1), FALSE)
  // is the constant 0, which leaves the root OR an alias of a second
  // OR(x1, ¬x1), the one op left before the root's smoothing.
  Circuit zeroed = io::ParseNnf(
                       "nnf 7 8 3\n"
                       "L 1\n"
                       "L -1\n"
                       "O 1 2 0 1\n"
                       "O 0 0\n"
                       "A 2 2 3\n"
                       "O 1 2 0 1\n"
                       "O 0 2 4 5\n")
                       .circuit;
  EXPECT_EQ(zeroed.tape_size(), 4u);
  EXPECT_EQ(zeroed.Evaluate(weights), total1 * total2 * total3);

  // Non-smooth ORs: in OR(x1, AND(¬x1, x2)) and OR(¬x1, AND(x1, ¬x2)),
  // under the two phases of x3, the lone literal lacks x2. Both products
  // x1·s and ¬x1·s read one shared sum s = w2 + w̄2, so the tape has 10
  // ops: the 7 ANDs and ORs, s and the two products.
  Circuit nonsmooth = io::ParseNnf(
                          "nnf 13 14 3\n"
                          "L 1\nL -1\nL 2\nL -2\nL 3\nL -3\n"
                          "A 2 1 2\n"
                          "O 1 2 0 6\n"
                          "A 2 0 3\n"
                          "O 1 2 1 8\n"
                          "A 2 4 7\n"
                          "A 2 5 9\n"
                          "O 3 2 10 11\n")
                          .circuit;
  EXPECT_EQ(nonsmooth.tape_size(), 10u);
  const BigRational x1(BigRational::Fraction(2, 3));
  const BigRational not_x1(5);
  EXPECT_EQ(nonsmooth.Evaluate(weights),
            BigRational(11) * (x1 * total2 + not_x1 * BigRational(-7)) +
                BigRational(13) * (not_x1 * total2 +
                                   x1 * BigRational::Fraction(1, 4)));

  // Auxiliary folding: variables 1 and 2 are auxiliaries. AND(x0, a) and
  // AND(¬x0, ¬a) alias x0 and ¬x0, the free auxiliary OR(b, ¬b) is the
  // constant 2, and the tape is s = w + w̄ then 2·s in a second slot.
  std::vector<Circuit::Node> nodes = {
      {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(0, true)},
      {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(0, false)},
      {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(1, true)},
      {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(1, false)},
      {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(2, true)},
      {.kind = NodeKind::kLiteral, .literal = prop::MakeLit(2, false)},
      {.kind = NodeKind::kAnd, .children_begin = 0, .children_end = 2},
      {.kind = NodeKind::kAnd, .children_begin = 2, .children_end = 4},
      {.kind = NodeKind::kOr,
       .decision = 0,
       .children_begin = 4,
       .children_end = 6},
      {.kind = NodeKind::kOr,
       .decision = 2,
       .children_begin = 6,
       .children_end = 8},
      {.kind = NodeKind::kAnd, .children_begin = 8, .children_end = 10},
  };
  std::vector<Circuit::NodeId> edges = {0, 2, 1, 3, 6, 7, 4, 5, 8, 9};
  Circuit folded(3, nodes, edges, 10, /*auxiliary_begin=*/1);
  EXPECT_EQ(folded.auxiliary_begin(), 1u);
  EXPECT_EQ(folded.tape_size(), 2u);
  EXPECT_EQ(folded.tape_slots(), 2u);
  EXPECT_THROW(folded.Evaluate(weights), std::invalid_argument);
  WeightMap unit_auxiliaries = weights;
  unit_auxiliaries.Set(1, BigRational(1), BigRational(1));
  unit_auxiliaries.Set(2, BigRational(1), BigRational(1));
  BigRational expected =
      BigRational(2) * (BigRational::Fraction(2, 3) + BigRational(5));
  EXPECT_EQ(folded.Evaluate(unit_auxiliaries), expected);
  // Without the boundary the same nodes fold nothing but agree.
  Circuit unfolded(3, nodes, edges, 10);
  EXPECT_EQ(unfolded.tape_size(), 5u);
  EXPECT_EQ(unfolded.Evaluate(unit_auxiliaries), expected);
}

TEST(Tape, OneArenaServesCircuitsOfDifferentSizes) {
  logic::Vocabulary vocabulary;
  logic::Formula sentence = logic::Parse(kTriangle, &vocabulary);
  Engine engine(vocabulary);
  CompiledQuery five = CompileGrounded(&engine, sentence, 5);
  CompiledQuery four = CompileGrounded(&engine, sentence, 4);
  std::vector<std::vector<RelationWeights>> regimes =
      WeightRegimes(vocabulary);
  Circuit::EvalArena arena;
  for (const std::vector<RelationWeights>& regime :
       {regimes[1], regimes[5]}) {
    BigRational expected_five = five.Evaluate(5, regime);
    BigRational expected_four = four.Evaluate(4, regime);
    EXPECT_EQ(five.Evaluate(5, regime, &arena), expected_five);
    EXPECT_EQ(four.Evaluate(4, regime, &arena), expected_four);
    EXPECT_EQ(five.Evaluate(5, regime, &arena), expected_five);
  }
}

// --- CompiledQuery surface ----------------------------------------------

TEST(CompiledQuery, RejectsUnknownRelation) {
  logic::Vocabulary vocabulary;
  logic::Formula sentence = logic::Parse("forall x R(x)", &vocabulary);
  Engine engine(vocabulary);
  CompiledQuery compiled = CompileGrounded(&engine, sentence, 2);
  EXPECT_THROW(
      compiled.Evaluate(2, {{"NoSuchRelation", BigRational(1),
                             BigRational(1)}}),
      std::invalid_argument);
}

TEST(CompiledQuery, ReweightSweepMatchesEngine) {
  // The serving loop: one compile, many weight vectors, against the
  // engine recounting each time.
  logic::Vocabulary vocabulary;
  logic::Formula sentence =
      logic::Parse("forall x exists y S(x,y)", &vocabulary);
  Engine engine(vocabulary);
  CompiledQuery compiled = CompileGrounded(&engine, sentence, 3);
  for (std::int64_t k = -2; k <= 2; ++k) {
    std::vector<RelationWeights> regime = {
        {"S", BigRational(k), BigRational::Fraction(1, 3)}};
    logic::Vocabulary reweighted = vocabulary;
    reweighted.SetWeights(reweighted.Require("S"), BigRational(k),
                          BigRational::Fraction(1, 3));
    Engine recount(reweighted);
    EXPECT_EQ(compiled.Evaluate(3, regime),
              recount.WFOMC(sentence, 3, Method::kGrounded).value)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace swfomc
