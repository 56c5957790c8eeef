// The io module's contract, exercised three ways:
//
//  1. Error paths: every malformed input — unknown directives, duplicate
//     predicate declarations, bad weight lines, truncated CNFs, FO syntax
//     errors — must surface as io::ParseError with a 1-based line/column,
//     never as a crash or a bare unpositioned exception.
//  2. Round trips: PrintModel/PrintWeightedCnf are fixpoints of their
//     parsers (print(parse(x)) == normalize(x)), checked on hand-written
//     inputs and on seeded random instances (SWFOMC_FUZZ_SEED rotates in
//     CI; the base seed is printed for replay).
//  3. The golden bridge: tests/golden/models/*.model must stay faithful
//     mirrors of wfomc_golden.json — same sentence, weights, domain, and
//     pinned value — so `swfomc run --check` over those files is exactly
//     the golden corpus, replayed through the real binary.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "api/engine.h"
#include "io/cnf_format.h"
#include "io/diagnostics.h"
#include "io/json.h"
#include "io/model_format.h"
#include "io/runner.h"
#include "grounding/lineage.h"
#include "grounding/tuple_index.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "prop/tseitin.h"
#include "numeric/rational.h"
#include "test_util.h"
#include "wmc/dpll_counter.h"

namespace swfomc {
namespace {

using io::CnfRunReport;
using io::JsonValue;
using io::ModelRunReport;
using io::ModelSpec;
using io::ParseError;
using io::ParseJson;
using io::ParseModel;
using io::ParseWeightedCnf;
using io::PrintModel;
using io::PrintWeightedCnf;
using io::WeightedCnf;
using numeric::BigRational;

// Asserts that parsing `text` fails at the given position with a message
// containing `needle`.
template <typename Parser>
void ExpectParseErrorAt(Parser parse, const std::string& text,
                        std::size_t line, std::size_t column,
                        const std::string& needle) {
  try {
    parse(text);
    FAIL() << "expected ParseError for:\n" << text;
  } catch (const ParseError& error) {
    EXPECT_EQ(error.location().line, line) << error.what();
    EXPECT_EQ(error.location().column, column) << error.what();
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "message '" << error.what() << "' lacks '" << needle << "'";
  }
}

void ExpectModelErrorAt(const std::string& text, std::size_t line,
                        std::size_t column, const std::string& needle) {
  ExpectParseErrorAt([](const std::string& t) { return ParseModel(t); }, text,
                     line, column, needle);
}

void ExpectCnfErrorAt(const std::string& text, std::size_t line,
                      std::size_t column, const std::string& needle) {
  ExpectParseErrorAt(
      [](const std::string& t) { return ParseWeightedCnf(t); }, text, line,
      column, needle);
}

// --- JSON ----------------------------------------------------------------

TEST(Json, ParsesEveryValueKind) {
  JsonValue root = ParseJson(
      R"({"s": "a\nb", "n": -42, "f": 0.5, "b": true, "nil": null,
          "arr": [1, 2], "obj": {"k": "v"}})");
  EXPECT_EQ(root.At("s").string, "a\nb");
  EXPECT_EQ(root.At("n").string, "-42");
  EXPECT_EQ(root.At("f").string, "0.5");
  EXPECT_TRUE(root.At("b").boolean);
  EXPECT_EQ(root.At("nil").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(root.At("arr").array.size(), 2u);
  EXPECT_EQ(root.At("obj").At("k").string, "v");
  EXPECT_TRUE(root.Has("s"));
  EXPECT_FALSE(root.Has("missing"));
}

TEST(Json, NumbersSurviveVerbatim) {
  // Exact big integers must not pass through a double.
  const char* big = "123456789012345678901234567890123456789";
  JsonValue root = ParseJson(std::string("{\"v\": ") + big + "}");
  EXPECT_EQ(root.At("v").string, big);
}

TEST(Json, DumpRoundTrips) {
  JsonValue value = JsonValue::MakeObject();
  value.Add("name", JsonValue::MakeString("quote\" and \\ and \n"));
  value.Add("count", JsonValue::MakeNumber(std::uint64_t{7}));
  JsonValue& arr = value.Add("points", JsonValue::MakeArray());
  arr.array.push_back(JsonValue::MakeBool(false));
  arr.array.push_back(JsonValue::MakeNull());
  for (int indent : {-1, 0, 2}) {
    JsonValue reparsed = ParseJson(value.Dump(indent));
    EXPECT_EQ(reparsed.At("name").string, value.At("name").string);
    EXPECT_EQ(reparsed.At("count").string, "7");
    EXPECT_EQ(reparsed.At("points").array.size(), 2u);
  }
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  // Regression: MakeNumber(double) used to pass inf/nan straight through
  // "%.17g", emitting bare `inf`/`nan` tokens — invalid JSON that would
  // poison any consumer of the reports (the serve protocol included).
  for (double value : {std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    JsonValue json = JsonValue::MakeNumber(value);
    EXPECT_EQ(json.kind, JsonValue::Kind::kNull);
    EXPECT_EQ(json.Dump(-1), "null");
  }
  // Finite values still render as numbers, and every rendering must be
  // re-parseable — the fixpoint the serve protocol relies on.
  JsonValue finite = JsonValue::MakeNumber(0.125);
  EXPECT_EQ(finite.kind, JsonValue::Kind::kNumber);
  EXPECT_EQ(ParseJson(finite.Dump(-1)).string, "0.125");
  EXPECT_EQ(JsonValue::MakeNumber(std::numeric_limits<double>::max()).kind,
            JsonValue::Kind::kNumber);
}

TEST(Json, ParserRejectsNonFiniteNumberTokens) {
  // The symmetric half: documents carrying the tokens the old writer
  // emitted must be rejected, not silently absorbed.
  auto parse = [](const std::string& t) { return ParseJson(t, "doc.json"); };
  for (const char* text :
       {"{\"v\": inf}", "{\"v\": -inf}", "{\"v\": nan}", "{\"v\": Infinity}",
        "{\"v\": NaN}", "inf", "nan"}) {
    EXPECT_THROW(parse(text), ParseError) << text;
  }
}

TEST(Json, ErrorsCarryLineAndColumn) {
  auto parse = [](const std::string& t) { return ParseJson(t, "doc.json"); };
  ExpectParseErrorAt(parse, "{\n  \"a\": 1,\n  \"a\": 2\n}", 3, 6,
                     "duplicate object key");
  ExpectParseErrorAt(parse, "{\"a\": }", 1, 7, "unexpected character");
  ExpectParseErrorAt(parse, "[1, 2", 1, 6, "unexpected end");
  ExpectParseErrorAt(parse, "{\"a\": \"unterminated", 1, 20, "unterminated");
  try {
    ParseJson("[", "doc.json");
    FAIL();
  } catch (const ParseError& error) {
    EXPECT_EQ(error.source(), "doc.json");
    EXPECT_NE(std::string(error.what()).find("doc.json:1:"),
              std::string::npos);
  }
}

// --- Model format --------------------------------------------------------

TEST(ModelFormat, ParsesAFullDocument) {
  ModelSpec spec = ParseModel(
      "# header comment\n"
      "model demo\n"
      "predicate S 2\n"
      "sentence forall x exists y S(x,y)  # trailing comment\n"
      "weight S 2 1/3\n"
      "domain 4\n"
      "method lifted-fo2\n"
      "expect -7/2\n");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.domain_lo, 4u);
  EXPECT_EQ(spec.domain_hi, 4u);
  EXPECT_FALSE(spec.IsSweep());
  EXPECT_EQ(spec.method, api::Method::kLiftedFO2);
  ASSERT_TRUE(spec.expect.has_value());
  EXPECT_EQ(*spec.expect, BigRational::Fraction(-7, 2));
  logic::RelationId s = spec.vocabulary.Require("S");
  EXPECT_EQ(spec.vocabulary.arity(s), 2u);
  EXPECT_EQ(spec.vocabulary.positive_weight(s), BigRational(2));
  EXPECT_EQ(spec.vocabulary.negative_weight(s), BigRational::Fraction(1, 3));
  EXPECT_EQ(spec.sentence_text, "forall x exists y S(x,y)");
}

TEST(ModelFormat, ParsesSweepRanges) {
  ModelSpec spec = ParseModel("sentence exists x U(x)\ndomain 2..9\n");
  EXPECT_EQ(spec.domain_lo, 2u);
  EXPECT_EQ(spec.domain_hi, 9u);
  EXPECT_TRUE(spec.IsSweep());
  EXPECT_EQ(spec.method, api::Method::kAuto);
}

TEST(ModelFormat, SentenceDeclaresUnknownRelations) {
  ModelSpec spec = ParseModel("sentence R(x,y) & U(x)\ndomain 1\n");
  EXPECT_EQ(spec.vocabulary.size(), 2u);
  EXPECT_EQ(spec.vocabulary.arity(spec.vocabulary.Require("R")), 2u);
  EXPECT_EQ(spec.vocabulary.arity(spec.vocabulary.Require("U")), 1u);
}

TEST(ModelFormat, ErrorPathsReportLineAndColumn) {
  // Unknown directive.
  ExpectModelErrorAt("sentence true\ndomain 1\nfrobnicate 3\n", 3, 1,
                     "unknown directive");
  // Duplicate directives.
  ExpectModelErrorAt("model a\nmodel b\nsentence true\ndomain 1\n", 2, 1,
                     "duplicate 'model'");
  ExpectModelErrorAt("sentence true\nsentence false\ndomain 1\n", 2, 1,
                     "duplicate 'sentence'");
  ExpectModelErrorAt("sentence true\ndomain 1\ndomain 2\n", 3, 1,
                     "duplicate 'domain'");
  ExpectModelErrorAt(
      "sentence exists x U(x)\nweight U 1 2\nweight U 1 2\ndomain 1\n", 3, 8,
      "duplicate weight");
  // Predicate declarations.
  ExpectModelErrorAt("predicate S 2\npredicate S 2\nsentence true\ndomain 1\n",
                     2, 11, "duplicate predicate declaration");
  ExpectModelErrorAt("sentence true\npredicate S 2\ndomain 1\n", 2, 1,
                     "must precede the sentence");
  ExpectModelErrorAt("predicate s 1\nsentence true\ndomain 1\n", 1, 11,
                     "uppercase");
  ExpectModelErrorAt("predicate S x\nsentence true\ndomain 1\n", 1, 13,
                     "bad arity");
  // Weight lines.
  ExpectModelErrorAt("sentence true\nweight R 1 1\ndomain 1\n", 2, 8,
                     "unknown predicate");
  ExpectModelErrorAt("sentence exists x U(x)\nweight U 1\ndomain 1\n", 2, 1,
                     "takes 3 operands");
  ExpectModelErrorAt("sentence exists x U(x)\nweight U 2,5 1\ndomain 1\n", 2,
                     10, "bad rational");
  ExpectModelErrorAt("sentence exists x U(x)\nweight U 1/0 1\ndomain 1\n", 2,
                     10, "zero denominator");
  // Domain.
  ExpectModelErrorAt("sentence true\ndomain -3\n", 2, 8, "bad domain size");
  ExpectModelErrorAt("sentence true\ndomain 5..2\n", 2, 8, "empty domain");
  ExpectModelErrorAt(
      "sentence true\ndomain 0..18446744073709551615\n", 2, 8, "too wide");
  ExpectModelErrorAt("sentence true\ndomain 23058430092136939520\n", 2, 8,
                     "overflows");
  // Method / expect.
  ExpectModelErrorAt("sentence true\ndomain 1\nmethod dpll\n", 3, 8,
                     "unknown method");
  ExpectModelErrorAt("sentence true\ndomain 1\nexpect 1..2\n", 3, 8,
                     "bad rational");
  // Missing required directives: the EOF error points at the last real
  // line — a trailing '\n' must not shift it onto a phantom empty line.
  // (`domain` itself is optional — a domain-less model compiles lifted —
  // but `expect` is meaningless without one.)
  ExpectModelErrorAt("domain 3\n", 1, 1, "missing required directive");
  ExpectModelErrorAt("sentence true\nexpect 1\n", 2, 1,
                     "'expect' needs a 'domain' directive");
  ExpectModelErrorAt("sentence true\nexpect 2 = 1\n", 2, 1,
                     "'expect' needs a 'domain' directive");
  // FO syntax errors map to the sentence's line, offset by the column of
  // the offending token within the sentence text.
  ExpectModelErrorAt("sentence forall x S(x\ndomain 2\n", 1, 22,
                     "FO parse error");
  // The arity conflict is detected once the lexer has consumed the second
  // atom's argument list: column = sentence start (10) + offset 22.
  ExpectModelErrorAt("# pad\nsentence exists x U(x) & U(x,x)\ndomain 2\n", 2,
                     32, "arity");
}

TEST(ModelFormat, EofErrorsPointAtTheLastRealLine) {
  // Same document with and without the trailing newline: the EOF
  // diagnostic must render the identical file:line:column either way.
  for (const char* text : {"model demo\ndomain 3", "model demo\ndomain 3\n"}) {
    try {
      ParseModel(text, "demo.model");
      FAIL() << "expected ParseError for:\n" << text;
    } catch (const ParseError& error) {
      EXPECT_EQ(error.source(), "demo.model");
      EXPECT_EQ(error.location().line, 2u) << error.what();
      EXPECT_EQ(error.location().column, 1u) << error.what();
      EXPECT_NE(std::string(error.what()).find("demo.model:2:1"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(CnfFormat, EofErrorsPointAtTheLastRealLine) {
  for (const char* text : {"p cnf 2 2\n1 0", "p cnf 2 2\n1 0\n"}) {
    try {
      ParseWeightedCnf(text, "demo.cnf");
      FAIL() << "expected ParseError for:\n" << text;
    } catch (const ParseError& error) {
      EXPECT_EQ(error.source(), "demo.cnf");
      EXPECT_EQ(error.location().line, 2u) << error.what();
      EXPECT_EQ(error.location().column, 1u) << error.what();
      EXPECT_NE(std::string(error.what()).find("demo.cnf:2:1"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(ModelFormat, PrintIsAParserFixpoint) {
  ModelSpec spec = ParseModel(
      "model demo\n"
      "sentence   forall x   exists y ( S(x,y) )\n"
      "weight S 2 1\n"
      "domain 1..5\n"
      "method grounded\n"
      "expect 9\n");
  std::string canonical = PrintModel(spec);
  ModelSpec reparsed = ParseModel(canonical);
  EXPECT_EQ(PrintModel(reparsed), canonical);
  EXPECT_EQ(reparsed.domain_lo, 1u);
  EXPECT_EQ(reparsed.domain_hi, 5u);
  EXPECT_EQ(reparsed.method, api::Method::kGrounded);
  ASSERT_TRUE(reparsed.expect.has_value());
  EXPECT_EQ(*reparsed.expect, BigRational(9));
  // The canonical form declares every predicate explicitly.
  EXPECT_NE(canonical.find("predicate S 2"), std::string::npos);
}

TEST(ModelFormat, DomainIsOptionalAndOmittedByPrint) {
  // A domain-less model is a compile-only workload for the lifted
  // compiler; PrintModel must not invent a `domain 0` line for it.
  ModelSpec spec = ParseModel("sentence forall x U(x)\n");
  EXPECT_FALSE(spec.has_domain);
  std::string canonical = PrintModel(spec);
  EXPECT_EQ(canonical.find("domain"), std::string::npos);
  ModelSpec reparsed = ParseModel(canonical);
  EXPECT_FALSE(reparsed.has_domain);
  EXPECT_EQ(PrintModel(reparsed), canonical);
}

TEST(ModelFormat, RoundTripFuzz) {
  std::uint64_t base = testutil::FuzzBaseSeed(1);
  std::cout << "SWFOMC_FUZZ_SEED base = " << base << std::endl;
  for (std::uint64_t i = 0; i < 60; ++i) {
    std::uint64_t seed = base + i;
    testutil::RandomSentence random =
        i % 2 == 0 ? testutil::MakeRandomFO2Sentence(seed)
                   : testutil::MakeRandomGammaAcyclicSentence(seed,
                                                              2 + seed % 4);
    ModelSpec spec;
    spec.name = "fuzz-" + std::to_string(seed);
    spec.vocabulary = random.vocabulary;
    spec.sentence = random.sentence;
    spec.has_domain = true;
    spec.domain_lo = 1 + seed % 3;
    spec.domain_hi = spec.domain_lo + seed % 2;
    if (seed % 3 == 0) spec.method = api::Method::kGrounded;
    if (seed % 4 == 0) spec.expect = BigRational::Fraction(-3, 7);

    // print(parse(print(spec))) == print(spec): printing is canonical.
    std::string canonical = PrintModel(spec);
    SCOPED_TRACE(canonical);
    ModelSpec reparsed = ParseModel(canonical, "fuzz.model");
    EXPECT_EQ(PrintModel(reparsed), canonical);
    // And the reparse preserves the semantics, not just the text.
    EXPECT_EQ(logic::ToString(reparsed.sentence, reparsed.vocabulary),
              logic::ToString(spec.sentence, spec.vocabulary));
    ASSERT_EQ(reparsed.vocabulary.size(), spec.vocabulary.size());
    for (logic::RelationId id = 0; id < spec.vocabulary.size(); ++id) {
      EXPECT_EQ(reparsed.vocabulary.name(id), spec.vocabulary.name(id));
      EXPECT_EQ(reparsed.vocabulary.positive_weight(id),
                spec.vocabulary.positive_weight(id));
      EXPECT_EQ(reparsed.vocabulary.negative_weight(id),
                spec.vocabulary.negative_weight(id));
    }
    EXPECT_EQ(reparsed.domain_lo, spec.domain_lo);
    EXPECT_EQ(reparsed.domain_hi, spec.domain_hi);
    EXPECT_EQ(reparsed.method, spec.method);
    EXPECT_EQ(reparsed.expect, spec.expect);
  }
}

TEST(ModelFormat, MutationFuzzNeverCrashes) {
  // Random single-character mutations of a valid document must either
  // parse or throw ParseError — nothing else, and never a crash.
  testutil::ExpectMutantsParseOrFail(
      "model demo\npredicate S 2\nsentence forall x exists y S(x,y)\n"
      "weight S 1/2 -1\ndomain 1..4\nmethod auto\nexpect 343\n",
      "abcdefgXYZ0123456789 .#/-_()&|!,\nqwS", 300,
      [](const std::string& text) {
        return PrintModel(ParseModel(text, "mutated.model"));
      });
}

// --- Weighted CNF --------------------------------------------------------

TEST(CnfFormat, ParsesWeightsAndClauses) {
  WeightedCnf instance = ParseWeightedCnf(
      "c a comment\n"
      "p cnf 4 3\n"
      "w 1 1/2 3/2\n"    // both sides
      "w -2 2\n"         // literal form: sets w̄(2)
      "w 3 5 7\n"
      "1 -2 0\n"
      "3 4\n0\n"         // clause spanning lines
      "-1 0\n");
  EXPECT_EQ(instance.cnf.variable_count, 4u);
  ASSERT_EQ(instance.cnf.clauses.size(), 3u);
  EXPECT_EQ(instance.cnf.clauses[1],
            (prop::Clause{prop::MakeLit(2, true), prop::MakeLit(3, true)}));
  EXPECT_EQ(instance.weights.Get(0).positive, BigRational::Fraction(1, 2));
  EXPECT_EQ(instance.weights.Get(0).negative, BigRational::Fraction(3, 2));
  EXPECT_EQ(instance.weights.Get(1).positive, BigRational(1));
  EXPECT_EQ(instance.weights.Get(1).negative, BigRational(2));
  EXPECT_EQ(instance.weights.Get(2).positive, BigRational(5));
  EXPECT_EQ(instance.weights.Get(2).negative, BigRational(7));
  EXPECT_EQ(instance.weights.Get(3).positive, BigRational(1));  // default
}

TEST(CnfFormat, ErrorPathsReportLineAndColumn) {
  ExpectCnfErrorAt("1 2 0\n", 1, 1, "header before");
  ExpectCnfErrorAt("p dnf 2 1\n1 0\n", 1, 1, "malformed header");
  ExpectCnfErrorAt("p cnf 2 1\np cnf 2 1\n", 2, 1, "duplicate 'p' header");
  ExpectCnfErrorAt("p cnf x 1\n", 1, 7, "bad variable count");
  // Counts beyond the 32-bit literal encoding are rejected, not wrapped:
  // 2^31 variables already need literal 2^32 - 1 and a 2^32 literal space.
  ExpectCnfErrorAt("p cnf 4294967297 1\n1 0\n", 1, 7,
                   "exceeds the supported maximum");
  ExpectCnfErrorAt("p cnf 2147483648 1\n1 0\n", 1, 7,
                   "exceeds the supported maximum");
  ExpectCnfErrorAt("p cnf 2 1\n1 3 0\n", 2, 3, "out of range");
  ExpectCnfErrorAt("p cnf 2 1\n1 0\n2 0\n", 3, 3, "more clauses");
  ExpectCnfErrorAt("p cnf 2 2\n1 0\n", 2, 1, "truncated CNF");
  ExpectCnfErrorAt("p cnf 2 1\n1 2\n", 2, 1, "terminating 0");
  ExpectCnfErrorAt("p cnf 2 1\nw 1 0.5 1\n1 0\n", 2, 5, "bad rational");
  ExpectCnfErrorAt("p cnf 3 1\nw 1 1/0 3\n1 0\n", 2, 5, "zero denominator");
  ExpectCnfErrorAt("p cnf 2 1\nw 1 1 2 3\n1 0\n", 2, 1,
                   "malformed weight line");
  // A weight line ending in a bare 0 is ambiguous (terminated literal
  // form vs w̄ = 0) and rejected either way; 0/1 spells the zero weight.
  ExpectCnfErrorAt("p cnf 2 1\nw 2 1/2 0\n1 0\n", 2, 9, "ambiguous");
  ExpectCnfErrorAt("p cnf 2 1\nw -2 1/2 0\n1 0\n", 2, 10, "ambiguous");
  ExpectCnfErrorAt("p cnf 2 1\nw 1 1 2 3 0\n1 0\n", 2, 1,
                   "no trailing 0 terminator");
  ExpectCnfErrorAt("p cnf 2 1\nw 0 1 1\n1 0\n", 2, 3, "out of range");
  ExpectCnfErrorAt("p cnf 2 1\nw 1 1 1\nw 1 2 2\n1 0\n", 3, 3, "set twice");
  ExpectCnfErrorAt("p cnf 2 1\nw -1 2\nw -1 3\n1 0\n", 3, 3, "set twice");
  ExpectCnfErrorAt("p cnf 2 1\n1 - 0\n", 2, 3, "bad literal");
}

TEST(CnfFormat, MutationFuzzNeverCrashes) {
  testutil::ExpectMutantsParseOrFail(
      "c demo\np cnf 3 3\nw 1 1/2 3\nw -2 2\n1 -2 0\n2 3\n0\n-3 1 0\n",
      "0123456789 -/\npcnfw", 2000, [](const std::string& text) {
        return PrintWeightedCnf(ParseWeightedCnf(text, "mutated.cnf"));
      });
}

TEST(CnfFormat, PrintIsAParserFixpoint) {
  WeightedCnf instance = ParseWeightedCnf(
      "c noise\np cnf 3 2\nw 2 -1 1/3\n1 -2 3 0\n-3 0\n");
  std::string canonical = PrintWeightedCnf(instance);
  WeightedCnf reparsed = ParseWeightedCnf(canonical);
  EXPECT_EQ(PrintWeightedCnf(reparsed), canonical);
  EXPECT_EQ(reparsed.cnf.clauses, instance.cnf.clauses);
}

TEST(CnfFormat, PlainDimacsCornerCases) {
  // Comments and blank lines between the header and the clauses.
  WeightedCnf commented = ParseWeightedCnf(
      "c a comment\n\np cnf 2 2\nc interleaved\n1 2 0\n\n-1 0\n");
  ASSERT_EQ(commented.cnf.clauses.size(), 2u);
  EXPECT_EQ(commented.cnf.clauses[1],
            (prop::Clause{prop::MakeLit(0, false)}));
  // The unweighted rendering is plain DIMACS.
  EXPECT_EQ(PrintWeightedCnf(commented), "p cnf 2 2\n1 2 0\n-1 0\n");
  // An empty clause (a bare terminator) survives a round trip.
  WeightedCnf with_empty;
  with_empty.cnf.variable_count = 5;
  with_empty.cnf.clauses = {{prop::MakeLit(0, true), prop::MakeLit(4, false)},
                            {prop::MakeLit(1, false), prop::MakeLit(2, true),
                             prop::MakeLit(3, true)},
                            {},
                            {prop::MakeLit(4, true)}};
  with_empty.weights = wmc::WeightMap(5);
  EXPECT_EQ(ParseWeightedCnf(PrintWeightedCnf(with_empty)).cnf.clauses,
            with_empty.cnf.clauses);
  ExpectCnfErrorAt("p cnf 2 1\n1 zz 0\n", 2, 3, "bad literal");
}

TEST(CnfFormat, GroundedLineageSurvivesRoundTrip) {
  // Ground a sentence, Tseitin it, print and reparse the CNF: the model
  // count is unchanged, (2^3 - 1)^3 = 343.
  logic::Vocabulary vocabulary;
  logic::Formula sentence =
      logic::Parse("forall x exists y R(x,y)", &vocabulary);
  grounding::TupleIndex index(vocabulary, 3);
  prop::TseitinResult encoded = prop::TseitinTransform(
      grounding::GroundLineage(sentence, index),
      static_cast<std::uint32_t>(index.TupleCount()));
  WeightedCnf instance;
  instance.cnf = std::move(encoded.cnf);
  instance.weights = wmc::WeightMap(instance.cnf.variable_count);
  WeightedCnf reparsed = ParseWeightedCnf(PrintWeightedCnf(instance));
  EXPECT_EQ(wmc::CountWeightedModels(reparsed.cnf, reparsed.weights),
            BigRational(343));
}

TEST(CnfFormat, ZeroNegativeWeightRoundTripsAsFraction) {
  // w̄ = 0 prints as "0/1" (a bare trailing 0 is rejected as ambiguous).
  WeightedCnf instance = ParseWeightedCnf("p cnf 1 1\nw 1 2 0/1\n1 0\n");
  EXPECT_TRUE(instance.weights.Get(0).negative.IsZero());
  std::string canonical = PrintWeightedCnf(instance);
  EXPECT_NE(canonical.find("w 1 2 0/1"), std::string::npos);
  EXPECT_EQ(PrintWeightedCnf(ParseWeightedCnf(canonical)), canonical);
}

TEST(CnfFormat, RoundTripAndCountFuzz) {
  std::uint64_t base = testutil::FuzzBaseSeed(1);
  std::cout << "SWFOMC_FUZZ_SEED base = " << base << std::endl;
  std::mt19937_64 rng(base);
  for (int i = 0; i < 30; ++i) {
    WeightedCnf instance;
    instance.cnf = testutil::RandomCnf(&rng, 6, 8, 3);
    instance.weights = testutil::RandomWeights(&rng, 6, /*allow_negative=*/
                                               i % 2 == 0);
    std::string canonical = PrintWeightedCnf(instance);
    SCOPED_TRACE(canonical);
    WeightedCnf reparsed = ParseWeightedCnf(canonical, "fuzz.cnf");
    EXPECT_EQ(PrintWeightedCnf(reparsed), canonical);
    EXPECT_EQ(reparsed.cnf.clauses, instance.cnf.clauses);
    // The reparsed instance must count identically to the original.
    EXPECT_EQ(wmc::CountWeightedModels(reparsed.cnf, reparsed.weights),
              wmc::CountWeightedModels(instance.cnf, instance.weights));
  }
}

// --- Runner + reports ----------------------------------------------------

TEST(Runner, SinglePointModelReportsStatsAndRoute) {
  ModelSpec spec = ParseModel(
      "sentence exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))\n"
      "domain 3\nexpect 463\n");
  ModelRunReport report = io::RunModel(spec, {}, "triangle.model");
  EXPECT_EQ(report.method_used, api::Method::kGrounded);
  EXPECT_EQ(report.route.method, api::Method::kGrounded);
  EXPECT_NE(report.route.reason.find("grounded fallback"), std::string::npos);
  ASSERT_EQ(report.points.size(), 1u);
  EXPECT_EQ(report.points[0].value, BigRational(463));
  EXPECT_TRUE(report.check_passed);
  ASSERT_TRUE(report.grounded_stats.has_value());
  EXPECT_GE(report.grounded_stats->decisions, 1u);

  JsonValue json = io::ToJson(report);
  EXPECT_EQ(json.At("method").string, "grounded");
  EXPECT_EQ(json.At("check").string, "pass");
  EXPECT_EQ(json.At("points").array.at(0).At("wfomc").string, "463");
  EXPECT_TRUE(json.At("stats").Has("decisions"));
  // The document must be valid JSON in both renderings.
  ParseJson(json.Dump(2));
  ParseJson(json.Dump(-1));
}

TEST(Runner, SweepAndExpectMismatch) {
  ModelSpec spec = ParseModel(
      "sentence forall x exists y S(x,y)\ndomain 1..3\nexpect 999\n");
  ModelRunReport report = io::RunModel(spec);
  ASSERT_EQ(report.points.size(), 3u);
  EXPECT_EQ(report.points[0].value, BigRational(1));
  EXPECT_EQ(report.points[2].value, BigRational(343));
  EXPECT_FALSE(report.check_passed);  // 343 != 999
  JsonValue json = io::ToJson(report);
  EXPECT_EQ(json.At("check").string, "fail");
  EXPECT_EQ(json.At("domain").At("lo").string, "1");
  EXPECT_EQ(json.At("domain").At("hi").string, "3");
}

TEST(ModelFormat, ParsesAndPrintsPointExpects) {
  ModelSpec spec = ParseModel(
      "sentence forall x exists y S(x,y)\ndomain 1..3\n"
      "expect 2 = 9\nexpect 1 = 1\nexpect 343\n");
  ASSERT_EQ(spec.point_expects.size(), 2u);
  // Sorted ascending whatever the file order was.
  EXPECT_EQ(spec.point_expects[0].first, 1u);
  EXPECT_EQ(spec.point_expects[0].second, BigRational(1));
  EXPECT_EQ(spec.point_expects[1].first, 2u);
  EXPECT_EQ(spec.point_expects[1].second, BigRational(9));
  ASSERT_TRUE(spec.expect.has_value());
  EXPECT_EQ(*spec.expect, BigRational(343));
  std::string canonical = PrintModel(spec);
  EXPECT_NE(canonical.find("expect 1 = 1"), std::string::npos);
  EXPECT_EQ(PrintModel(ParseModel(canonical)), canonical);
}

TEST(ModelFormat, PointExpectErrorPaths) {
  const std::string header = "sentence exists x U(x)\ndomain 1..3\n";
  ExpectModelErrorAt(header + "expect 5 = 1\n", 3, 8,
                     "outside the domain range");
  ExpectModelErrorAt(header + "expect 2 = 1\nexpect 2 = 1\n", 4, 8,
                     "duplicate 'expect' for domain size 2");
  ExpectModelErrorAt(header + "expect 7\nexpect 3 = 7\n", 4, 8,
                     "conflicts with the plain 'expect'");
  ExpectModelErrorAt(header + "expect 1 2 3\n", 3, 1,
                     "takes either one operand");
}

TEST(Runner, MidSweepExpectMismatchFailsCheck) {
  // Regression: --check used to validate only points.back(), so a sweep
  // whose final point matched sailed through even when an intermediate
  // point disagreed with its `expect N = VALUE`.
  ModelSpec spec = ParseModel(
      "sentence forall x exists y S(x,y)\ndomain 1..3\n"
      "expect 2 = 999\nexpect 343\n");
  ModelRunReport report = io::RunModel(spec);
  ASSERT_EQ(report.points.size(), 3u);
  EXPECT_EQ(report.points[1].value, BigRational(9));    // not 999
  EXPECT_EQ(report.points[2].value, BigRational(343));  // final point fine
  EXPECT_FALSE(report.check_passed);
  ASSERT_TRUE(report.first_failed_point.has_value());
  EXPECT_EQ(*report.first_failed_point, 2u);
  JsonValue json = io::ToJson(report);
  EXPECT_EQ(json.At("check").string, "fail");
  EXPECT_EQ(json.At("points").array.at(1).At("check").string, "fail");
  EXPECT_EQ(json.At("points").array.at(1).At("expect").string, "999");
  // The matching final point still reports its own pass.
  EXPECT_EQ(json.At("points").array.at(2).At("check").string, "pass");
}

TEST(Runner, PointExpectsThatAllMatchPassTheCheck) {
  ModelSpec spec = ParseModel(
      "sentence forall x exists y S(x,y)\ndomain 1..3\n"
      "expect 1 = 1\nexpect 2 = 9\nexpect 343\n");
  ModelRunReport report = io::RunModel(spec);
  EXPECT_TRUE(report.check_passed);
  EXPECT_FALSE(report.first_failed_point.has_value());
  JsonValue json = io::ToJson(report);
  EXPECT_EQ(json.At("check").string, "pass");
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(json.At("points").array.at(i).At("check").string, "pass");
  }
}

TEST(Runner, MethodOverrideBeatsTheFile) {
  ModelSpec spec = ParseModel(
      "sentence forall x exists y S(x,y)\ndomain 3\nmethod lifted-fo2\n");
  io::RunOptions options;
  options.method_override = api::Method::kGrounded;
  ModelRunReport report = io::RunModel(spec, options);
  EXPECT_EQ(report.method_used, api::Method::kGrounded);
  EXPECT_EQ(report.route.method, api::Method::kLiftedFO2);  // still reported
  EXPECT_EQ(report.points[0].value, BigRational(343));
}

TEST(Runner, FullRangeSweepIsRejectedNotWrapped) {
  // Defense in depth behind the parser's 2^20-point cap: the engine
  // itself refuses the [0, 2^64-1] sweep whose point count would wrap
  // to zero (and previously segfaulted via points.back()).
  api::Engine engine((logic::Vocabulary()));
  logic::Formula sentence = engine.Parse("exists x U(x)");
  EXPECT_THROW(
      engine.WFOMCSweep(sentence, 0,
                        std::numeric_limits<std::uint64_t>::max()),
      std::invalid_argument);
}

TEST(Runner, CnfReportMatchesDirectCount) {
  WeightedCnf instance =
      ParseWeightedCnf("p cnf 3 2\nw 1 1/2 1\n1 2 0\n-1 3 0\n");
  CnfRunReport report = io::RunWeightedCnf(instance, {}, "x.cnf");
  EXPECT_EQ(report.count,
            wmc::CountWeightedModels(instance.cnf, instance.weights));
  EXPECT_EQ(report.variables, 3u);
  EXPECT_EQ(report.clauses, 2u);
  JsonValue json = io::ToJson(report);
  EXPECT_EQ(json.At("wmc").string, report.count.ToString());
  ParseJson(json.Dump(2));
}

// --- The golden bridge ---------------------------------------------------

// Every golden corpus case must have a faithful .model mirror, so that
// `swfomc run --check tests/golden/models/*.model` (the cli_golden_replay
// ctest entry and the CI step) replays exactly the corpus.
TEST(GoldenModels, MirrorTheCorpusExactly) {
  std::ifstream in(SWFOMC_GOLDEN_JSON);
  ASSERT_TRUE(in) << "cannot open " << SWFOMC_GOLDEN_JSON;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonValue corpus = ParseJson(buffer.str(), SWFOMC_GOLDEN_JSON);

  const std::vector<JsonValue>& cases = corpus.At("cases").array;
  ASSERT_FALSE(cases.empty());
  for (const JsonValue& entry : cases) {
    const std::string& name = entry.At("name").string;
    SCOPED_TRACE(name);
    std::string path =
        std::string(SWFOMC_GOLDEN_MODELS_DIR) + "/" + name + ".model";
    ModelSpec spec;
    ASSERT_NO_THROW(spec = io::LoadModelFile(path))
        << "regenerate with scripts/golden_models.py";
    EXPECT_EQ(spec.name, name);
    EXPECT_EQ(spec.sentence_text, entry.At("sentence").string);
    EXPECT_EQ(spec.domain_lo, std::stoull(entry.At("domain_size").string));
    EXPECT_EQ(spec.domain_hi, spec.domain_lo);
    EXPECT_EQ(spec.method, api::Method::kAuto);
    ASSERT_TRUE(spec.expect.has_value());
    EXPECT_EQ(*spec.expect,
              BigRational::FromString(entry.At("wfomc").string));
    for (const auto& [relation, weights] : entry.At("weights").object) {
      auto id = spec.vocabulary.Find(relation);
      ASSERT_TRUE(id.has_value()) << relation;
      EXPECT_EQ(spec.vocabulary.positive_weight(*id),
                BigRational::FromString(weights.array.at(0).string));
      EXPECT_EQ(spec.vocabulary.negative_weight(*id),
                BigRational::FromString(weights.array.at(1).string));
    }
  }
}

}  // namespace
}  // namespace swfomc
