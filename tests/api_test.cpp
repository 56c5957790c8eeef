// The Engine facade: routing, cross-method agreement, probability and
// 0-1-law helpers.

#include "api/engine.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "closedforms/closed_forms.h"
#include "io/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/budget.h"

namespace swfomc::api {
namespace {

using numeric::BigInt;
using numeric::BigRational;

TEST(EngineTest, RoutesFO2ToLifted) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y R(x,y)");
  EXPECT_EQ(engine.Route(f), Method::kLiftedFO2);
}

TEST(EngineTest, RoutesGammaAcyclicCQ) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f =
      engine.Parse("exists x exists y exists z (R(x,y) & S(y,z))");
  EXPECT_EQ(engine.Route(f), Method::kGammaAcyclic);
}

TEST(EngineTest, RoutesTypedCycleToGrounded) {
  Engine engine{logic::Vocabulary{}};
  // C3 is a CQ but cyclic, and uses 3 variables: grounded.
  logic::Formula f = engine.Parse(
      "exists x exists y exists z (R1(x,y) & R2(y,z) & R3(z,x))");
  EXPECT_EQ(engine.Route(f), Method::kGrounded);
}

TEST(EngineTest, RoutesHighArityToGrounded) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x forall y !T(x,y,x)");
  EXPECT_EQ(engine.Route(f), Method::kGrounded);
}

TEST(EngineTest, RoutesConstantsAwayFromLifted) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x R(x,0)");
  EXPECT_EQ(engine.Route(f), Method::kGrounded);
}

// Each lifted-fragment check, in order, names itself as the route's FO²
// obstacle, and the same checks decide fo2::CanCompileLifted.
TEST(EngineTest, ExplainRouteNamesEachLiftedObstacle) {
  const std::pair<const char*, const char*> cases[] = {
      {"forall y (R(x,y) | !R(y,x))", "not a sentence (free variables)"},
      {"forall x forall y forall z (R(x,y) | R(y,z) | R(z,x))",
       "uses more than 2 variables"},
      {"forall x forall y !T(x,y,x)", "vocabulary has a relation of arity > 2"},
      {"forall x R(x,0)", "contains constants"},
  };
  for (const auto& [text, reason] : cases) {
    Engine engine{logic::Vocabulary{}};
    logic::Formula f = engine.Parse(text);
    RouteDecision decision = engine.ExplainRoute(f);
    EXPECT_EQ(decision.method, Method::kGrounded) << text;
    EXPECT_TRUE(decision.reason.starts_with("grounded fallback: ")) << text;
    EXPECT_TRUE(decision.reason.ends_with(std::string("; ") + reason))
        << text << ": " << decision.reason;
    EXPECT_EQ(fo2::LiftedObstacle(f, engine.vocabulary()), reason) << text;
    EXPECT_FALSE(engine.CanCompileLifted(f)) << text;
  }
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y R(x,y)");
  EXPECT_EQ(engine.ExplainRoute(f).method, Method::kLiftedFO2);
  EXPECT_EQ(fo2::LiftedObstacle(f, engine.vocabulary()), std::nullopt);
  EXPECT_TRUE(engine.CanCompileLifted(f));
}

TEST(EngineTest, ExplainRouteNamesTheSelfJoin) {
  Engine engine{logic::Vocabulary{}};
  RouteDecision triangle = engine.ExplainRoute(engine.Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))"));
  EXPECT_EQ(triangle.method, Method::kGrounded);
  EXPECT_TRUE(triangle.reason.starts_with(
      "grounded fallback: conjunctive query with a self-join on relation "
      "S; "))
      << triangle.reason;
  // A body that is no conjunction of atoms keeps the generic reason.
  RouteDecision negated = engine.ExplainRoute(engine.Parse(
      "exists x exists y exists z (S(x,y) & !S(y,z) & T(x,y,z))"));
  EXPECT_TRUE(negated.reason.starts_with(
      "grounded fallback: not an existential conjunctive query; "))
      << negated.reason;
}

// The polarity step complements exactly the ∃-prefixed sentences on the
// lifted and grounded routes; every answer stays WFOMC(Φ).
TEST(EngineTest, RouteDecisionAndMetricNameThePolarity) {
  obs::MetricsRegistry registry;
  Engine::Options options;
  options.metrics = &registry;
  Engine engine(logic::Vocabulary{}, options);
  struct Case {
    const char* text;
    Method method;
    bool complemented;
  } cases[] = {
      {"exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))",
       Method::kGrounded, true},
      {"exists x forall y (R(x,y) | U(y))", Method::kLiftedFO2, true},
      {"forall x exists y R(x,y)", Method::kLiftedFO2, false},
      {"exists x exists y (A(x,y) & B(y))", Method::kGammaAcyclic, false},
      {"!(forall x U(x))", Method::kLiftedFO2, false},
  };
  for (const Case& c : cases) {
    logic::Formula f = engine.Parse(c.text);
    RouteDecision decision = engine.ExplainRoute(f);
    EXPECT_EQ(decision.method, c.method) << c.text;
    EXPECT_EQ(decision.complemented, c.complemented) << c.text;
    EXPECT_EQ(CountsComplement(f, decision.method), c.complemented)
        << c.text;
  }
  // A γ-acyclic CQ forced onto the grounded route is complemented there.
  logic::Formula cq = engine.Parse("exists x exists y (A(x,y) & B(y))");
  EXPECT_TRUE(CountsComplement(cq, Method::kGrounded));
  EXPECT_FALSE(CountsComplement(cq, Method::kGammaAcyclic));

  auto complemented = [&] {
    return registry
        .GetCounter("swfomc_engine_complemented_total")
        ->Value();
  };
  engine.WFOMC(cq, 2, Method::kGammaAcyclic);
  EXPECT_EQ(complemented(), 0u);
  Engine::Result grounded = engine.WFOMC(cq, 2, Method::kGrounded);
  EXPECT_EQ(complemented(), 1u);
  EXPECT_EQ(grounded.method, Method::kGrounded);
  EXPECT_EQ(grounded.value, engine.WFOMC(cq, 2, Method::kGammaAcyclic).value);
  engine.WFOMCSweep(cq, 1, 2, Method::kLiftedFO2);
  engine.Compile(cq, CompileOptions{.domain_size = 2,
                                    .method = Method::kGrounded});
  EXPECT_EQ(complemented(), 3u);
}

TEST(EngineTest, MethodsAgreeOnFO2CQ) {
  // ∃x∃y (R(x,y) & T(y)) is simultaneously FO², a γ-acyclic CQ, and
  // groundable: all three answers must coincide.
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("exists x exists y (R(x,y) & T(y))");
  engine.mutable_vocabulary()->SetWeights(
      engine.vocabulary().Require("R"), BigRational(2), BigRational(1));
  engine.mutable_vocabulary()->SetWeights(
      engine.vocabulary().Require("T"), BigRational(1), BigRational(3));
  for (std::uint64_t n = 1; n <= 3; ++n) {
    BigRational lifted = engine.WFOMC(f, n, Method::kLiftedFO2).value;
    BigRational gamma = engine.WFOMC(f, n, Method::kGammaAcyclic).value;
    BigRational grounded = engine.WFOMC(f, n, Method::kGrounded).value;
    EXPECT_EQ(lifted, gamma) << n;
    EXPECT_EQ(lifted, grounded) << n;
  }
}

TEST(EngineTest, FomcForcesUnitWeightsAndRestores) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y R(x,y)");
  engine.mutable_vocabulary()->SetWeights(
      engine.vocabulary().Require("R"), BigRational(7), BigRational(5));
  EXPECT_EQ(engine.FOMC(f, 4), closedforms::ForallExistsFOMC(4));
  // Weights restored afterwards.
  EXPECT_EQ(engine.vocabulary().positive_weight(
                engine.vocabulary().Require("R")),
            BigRational(7));
}

TEST(EngineTest, ProbabilityMatchesClosedForm) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("exists y S(y)");
  // Weights (1,1): Pr = (2^n - 1) / 2^n.
  EXPECT_EQ(engine.Probability(f, 5), BigRational::Fraction(31, 32));
}

TEST(EngineTest, MuConvergesToZeroForExistsForall) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("exists x forall y R(x,y)");
  BigRational mu8 = engine.Mu(f, 8);
  BigRational mu16 = engine.Mu(f, 16);
  EXPECT_LT(mu16, mu8);  // µ_n -> 0
  EXPECT_LT(mu16, BigRational::Fraction(1, 1000));
}

TEST(EngineTest, MuConvergesToOneForForallExists) {
  // (1 - 2^{-n})^n -> 1 by Fagin's 0-1 law (the paper's intro has a typo
  // claiming 0; EXPERIMENTS.md discusses it).
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x exists y R(x,y)");
  EXPECT_GT(engine.Mu(f, 16), BigRational::Fraction(999, 1000));
}

TEST(EngineTest, MuConvergesToOneForExtensionStyleAxiom) {
  // ∀x∃y R(x,y) fails a.a.s., but ∃x∃y R(x,y) holds a.a.s.: µ_n -> 1.
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("exists x exists y R(x,y)");
  BigRational mu6 = engine.Mu(f, 6);
  EXPECT_GT(mu6, BigRational::Fraction(999, 1000));
}

TEST(EngineTest, HasModelOfSize) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f =
      engine.Parse("exists x exists y (x != y & R(x,y))");
  EXPECT_FALSE(engine.HasModelOfSize(f, 1));
  EXPECT_TRUE(engine.HasModelOfSize(f, 2));
}

TEST(EngineTest, MethodNames) {
  EXPECT_STREQ(ToString(Method::kLiftedFO2), "lifted-fo2");
  EXPECT_STREQ(ToString(Method::kGammaAcyclic), "gamma-acyclic");
  EXPECT_STREQ(ToString(Method::kGrounded), "grounded");
}

TEST(EngineTest, AutoRoutingProducesSameValueAsExplicit) {
  Engine engine{logic::Vocabulary{}};
  logic::Formula f = engine.Parse("forall x forall y (R(x) | S(x,y) | T(y))");
  for (std::uint64_t n = 1; n <= 5; ++n) {
    Engine::Result result = engine.WFOMC(f, n);
    EXPECT_EQ(result.method, Method::kLiftedFO2);
    EXPECT_EQ(result.value.ToInteger(), closedforms::Table1FOMC(n)) << n;
  }
}

// WFOMC(Φ, n) is the one-point sweep: every field of its Result matches
// WFOMCSweep(Φ, n, n)'s only point (and the sweep's method and outcome).
// A decision cap, when given, arms a fresh budget for each call.
void ExpectWfomcIsOnePointSweep(Engine* engine, const logic::Formula& f,
                                std::uint64_t n,
                                std::optional<std::uint64_t> cap = {}) {
  SCOPED_TRACE(n);
  runtime::Budget point_budget;
  runtime::Budget sweep_budget;
  QueryOptions point_query;
  QueryOptions sweep_query;
  if (cap.has_value()) {
    point_budget.SetMaxDecisions(*cap);
    sweep_budget.SetMaxDecisions(*cap);
    point_query.budget = &point_budget;
    sweep_query.budget = &sweep_budget;
  }
  const Engine::Result result = engine->WFOMC(f, n, Method::kAuto, point_query);
  const Engine::SweepResult sweep =
      engine->WFOMCSweep(f, n, n, Method::kAuto, sweep_query);
  ASSERT_EQ(sweep.points.size(), 1u);
  const Engine::SweepPoint& point = sweep.points[0];
  EXPECT_EQ(point.domain_size, n);
  EXPECT_EQ(result.method, sweep.method);
  EXPECT_EQ(result.value, point.value);
  EXPECT_EQ(result.outcome, point.outcome);
  EXPECT_EQ(result.outcome, sweep.outcome);
  EXPECT_EQ(result.stop_reason, point.stop_reason);
  EXPECT_EQ(result.stop_reason, sweep.stop_reason);
  ASSERT_EQ(result.bounds.has_value(), point.bounds.has_value());
  if (result.bounds.has_value()) {
    EXPECT_EQ(result.bounds->lower, point.bounds->lower);
    EXPECT_EQ(result.bounds->upper, point.bounds->upper);
  }
  EXPECT_EQ(result.grounded_stats.has_value(),
            result.method == Method::kGrounded);
  ASSERT_EQ(result.grounded_stats.has_value(),
            point.grounded_stats.has_value());
  if (result.grounded_stats.has_value()) {
    const wmc::DpllCounter::Stats& a = *result.grounded_stats;
    const wmc::DpllCounter::Stats& b = *point.grounded_stats;
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.unit_propagations, b.unit_propagations);
    EXPECT_EQ(a.component_splits, b.component_splits);
    EXPECT_EQ(a.aborted_subtrees, b.aborted_subtrees);
    EXPECT_EQ(a.cache_lookups, b.cache_lookups);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.cache_entries, b.cache_entries);
    EXPECT_EQ(a.cache_collisions, b.cache_collisions);
    EXPECT_EQ(a.cache_insertions, b.cache_insertions);
    EXPECT_EQ(a.cache_evictions, b.cache_evictions);
    EXPECT_EQ(a.cache_bytes, b.cache_bytes);
  }
}

TEST(EngineTest, WfomcIsTheOnePointSweepOnEveryRoute) {
  Engine engine{logic::Vocabulary{}};
  const struct {
    const char* text;
    Method method;
    bool complemented;
  } cases[] = {
      {"forall x exists y E(x,y)", Method::kLiftedFO2, false},
      {"exists x forall y (U(x) | E(x,y))", Method::kLiftedFO2, true},
      {"exists x exists y (E(x,y) & U(y))", Method::kGammaAcyclic, false},
      {"forall x forall y forall z (E(x,y) | E(y,z) | E(z,x))",
       Method::kGrounded, false},
      {"exists x exists y exists z (E(x,y) & E(y,z) & E(z,x))",
       Method::kGrounded, true},
  };
  std::vector<logic::Formula> sentences;
  for (const auto& c : cases) sentences.push_back(engine.Parse(c.text));
  logic::Vocabulary* vocabulary = engine.mutable_vocabulary();
  vocabulary->SetWeights(vocabulary->Require("E"), BigRational(4, 7),
                         BigRational(5, 6));
  vocabulary->SetWeights(vocabulary->Require("U"), BigRational(2),
                         BigRational(1, 3));
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    SCOPED_TRACE(cases[i].text);
    RouteDecision route = engine.ExplainRoute(sentences[i]);
    ASSERT_EQ(route.method, cases[i].method);
    ASSERT_EQ(route.complemented, cases[i].complemented);
    for (std::uint64_t n = 0; n <= 3; ++n) {
      ExpectWfomcIsOnePointSweep(&engine, sentences[i], n);
    }
  }
}

TEST(EngineTest, CappedGroundedWfomcIsTheOnePointSweep) {
  Engine engine{logic::Vocabulary{}};
  const logic::Formula triangle =
      engine.Parse("exists x exists y exists z (E(x,y) & E(y,z) & E(z,x))");
  logic::Vocabulary* vocabulary = engine.mutable_vocabulary();
  vocabulary->SetWeights(vocabulary->Require("E"), BigRational(4, 7),
                         BigRational(5, 6));
  for (std::uint64_t cap : {0, 1, 3, 8}) {
    SCOPED_TRACE(cap);
    ExpectWfomcIsOnePointSweep(&engine, triangle, 4, cap);
  }
  runtime::Budget budget;
  budget.SetMaxDecisions(3);
  const Engine::Result capped =
      engine.WFOMC(triangle, 4, Method::kAuto, {.budget = &budget});
  EXPECT_EQ(capped.outcome, Outcome::kBounds);
  EXPECT_EQ(capped.stop_reason, runtime::StopReason::kDecisions);
}

// The span of each entry point: its name and its fields after the common
// timing keys, in order.
std::vector<std::string> SpanFields(const std::string& jsonl,
                                    std::string* name) {
  std::istringstream lines(jsonl);
  std::string line;
  std::vector<std::string> fields;
  while (std::getline(lines, line)) {
    io::JsonValue record = io::ParseJson(line, "<trace>");
    if (record.At("type").string != "span") continue;
    *name = record.At("name").string;
    for (const auto& [key, value] : record.object) {
      if (key != "type" && key != "name" && key != "ts_us" &&
          key != "dur_us") {
        fields.push_back(key);
      }
    }
  }
  return fields;
}

// A point is traced as "wfomc" with n and the outcome, whether it comes
// from WFOMC or a one-point WFOMCSweep (as `swfomc run` asks for a
// single domain size); a range is traced as "wfomc_sweep".
TEST(EngineTest, PointsAndRangesKeepTheirSpans) {
  const std::vector<std::string> point_fields = {"query", "method",
                                                 "polarity", "n", "outcome"};
  const std::vector<std::string> sweep_fields = {"query", "method",
                                                 "polarity", "n_lo", "n_hi"};
  using Call = void (*)(Engine*, const char*);
  const struct {
    Call call;
    const char* name;
    const std::vector<std::string>* fields;
  } calls[] = {
      {[](Engine* e, const char* t) { e->WFOMC(e->Parse(t), 2); }, "wfomc",
       &point_fields},
      {[](Engine* e, const char* t) { e->WFOMCSweep(e->Parse(t), 2, 2); },
       "wfomc", &point_fields},
      {[](Engine* e, const char* t) { e->WFOMCSweep(e->Parse(t), 2, 3); },
       "wfomc_sweep", &sweep_fields},
  };
  for (const char* text :
       {"forall x exists y E(x,y)", "exists x exists y (E(x,y) & U(y))",
        "exists x exists y exists z (E(x,y) & E(y,z) & E(z,x))"}) {
    for (const auto& call : calls) {
      SCOPED_TRACE(std::string(text) + " / " + call.name);
      std::ostringstream out;
      obs::TraceLog log(&out);
      Engine engine{logic::Vocabulary{}, {.trace = &log}};
      call.call(&engine, text);
      std::string name;
      EXPECT_EQ(SpanFields(out.str(), &name), *call.fields);
      EXPECT_EQ(name, call.name);
    }
  }
}

}  // namespace
}  // namespace swfomc::api
