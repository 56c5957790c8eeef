// Resource governance: budgets, cooperative cancellation, fault
// injection, and the anytime-bounds contract. The load-bearing property
// is differential: wherever a governed search is forced to stop, the
// explored prefix's exact mass plus the [0, free-mass] brackets of the
// abandoned subtrees must produce certified lower <= exact <= upper —
// and a budget generous enough to finish must reproduce the ungoverned
// count bit for bit.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "grounding/grounded_wfomc.h"
#include "logic/parser.h"
#include "logic/transform.h"
#include "numeric/rational.h"
#include "runtime/budget.h"
#include "test_util.h"
#include "wmc/component_cache.h"
#include "wmc/dpll_counter.h"

namespace swfomc {
namespace {

using numeric::BigInt;
using numeric::BigRational;
using runtime::Budget;
using runtime::CancelToken;
using runtime::FaultPoint;
using runtime::StopReason;
using wmc::ComponentCache;
using wmc::DpllCounter;

using CountResult = DpllCounter::CountResult;
using CountOutcome = DpllCounter::CountOutcome;

struct Instance {
  prop::CnfFormula cnf;
  wmc::WeightMap weights;
};

Instance MakeInstance(std::uint64_t seed, std::uint32_t variables,
                      std::size_t clauses, bool allow_negative = false) {
  std::mt19937_64 rng(seed);
  Instance instance;
  instance.cnf = testutil::RandomCnf(&rng, variables, clauses, 3);
  instance.weights =
      testutil::RandomWeights(&rng, variables, allow_negative);
  return instance;
}

BigRational ExactCount(const Instance& instance) {
  DpllCounter counter(instance.cnf, instance.weights);
  return counter.Count();
}

CountResult CountWithOptions(const Instance& instance,
                             DpllCounter::Options options,
                             DpllCounter::Stats* stats = nullptr) {
  DpllCounter counter(instance.cnf, instance.weights, options);
  CountResult result = counter.CountBounded();
  if (stats != nullptr) *stats = counter.stats();
  return result;
}

void ExpectBrackets(const CountResult& result, const BigRational& exact,
                    const std::string& context) {
  SCOPED_TRACE(context);
  switch (result.outcome) {
    case CountOutcome::kExact:
      EXPECT_EQ(result.value, exact);
      EXPECT_EQ(result.upper, exact);
      break;
    case CountOutcome::kBounds:
      EXPECT_LE(result.value, exact);
      EXPECT_LE(exact, result.upper);
      EXPECT_NE(result.stop_reason, StopReason::kNone);
      break;
    case CountOutcome::kAborted:
      ADD_FAILURE() << "unexpected kAborted (" << context << ")";
      break;
  }
}

// ---------------------------------------------------------------------
// Budget primitive semantics.

TEST(BudgetPrimitives, DecisionCapPermitsExactlyThatManyCharges) {
  Budget budget;
  budget.SetMaxDecisions(3);
  EXPECT_EQ(budget.ChargeDecisions(1), StopReason::kNone);
  EXPECT_EQ(budget.ChargeDecisions(1), StopReason::kNone);
  EXPECT_EQ(budget.ChargeDecisions(1), StopReason::kNone);
  EXPECT_EQ(budget.ChargeDecisions(1), StopReason::kDecisions);
  EXPECT_EQ(budget.decisions_used(), 4u);

  Budget zero;
  zero.SetMaxDecisions(0);
  EXPECT_EQ(zero.ChargeDecisions(1), StopReason::kDecisions);
}

TEST(BudgetPrimitives, ImmediateDeadlineFires) {
  Budget budget;
  budget.SetWallClockMs(0);
  EXPECT_EQ(budget.CheckDeadline(), StopReason::kDeadline);

  Budget generous;
  generous.SetWallClockMs(60'000);
  EXPECT_EQ(generous.CheckDeadline(), StopReason::kNone);
}

TEST(BudgetPrimitives, ByteChargesRollBackOnFailure) {
  Budget budget;
  budget.SetMaxMemoryBytes(100);
  EXPECT_TRUE(budget.TryChargeBytes(60));
  EXPECT_FALSE(budget.TryChargeBytes(50));  // would exceed; rolled back
  EXPECT_EQ(budget.bytes_used(), 60u);
  EXPECT_TRUE(budget.TryChargeBytes(40));
  budget.ReleaseBytes(100);
  EXPECT_EQ(budget.bytes_used(), 0u);
}

TEST(BudgetPrimitives, StopReasonNames) {
  EXPECT_STREQ(runtime::ToString(StopReason::kNone), "none");
  EXPECT_STREQ(runtime::ToString(StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(runtime::ToString(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(runtime::ToString(StopReason::kDecisions), "decisions");
  EXPECT_STREQ(runtime::ToString(StopReason::kMemory), "memory");
}

TEST(BudgetPrimitives, FaultPointFiresExactlyOnce) {
  FaultPoint fault(FaultPoint::Site::kDecision, FaultPoint::Action::kCancel,
                   3);
  EXPECT_FALSE(fault.Count(FaultPoint::Site::kDecision));
  EXPECT_FALSE(fault.Count(FaultPoint::Site::kCacheInsert));  // other site
  EXPECT_FALSE(fault.Count(FaultPoint::Site::kDecision));
  EXPECT_TRUE(fault.Count(FaultPoint::Site::kDecision));  // 3rd decision
  EXPECT_FALSE(fault.Count(FaultPoint::Site::kDecision));
  EXPECT_EQ(fault.reason(), StopReason::kCancelled);
}

// ---------------------------------------------------------------------
// Anytime bounds: differential fuzz against the ungoverned exact count.

TEST(BudgetBounds, ZeroBudgetsGiveSoundTrivialBrackets) {
  for (std::uint64_t seed :
       {testutil::FuzzBaseSeed(7101), testutil::FuzzBaseSeed(7101) + 1}) {
    Instance instance = MakeInstance(seed, 12, 20);
    BigRational exact = ExactCount(instance);

    Budget decisions;
    decisions.SetMaxDecisions(0);
    DpllCounter::Options options;
    options.budget = &decisions;
    DpllCounter::Stats stats;
    CountResult result = CountWithOptions(instance, options, &stats);
    ExpectBrackets(result, exact, "max_decisions=0 seed=" +
                                      std::to_string(seed));
    // A zero decision budget means the search may propagate but never
    // branch.
    EXPECT_EQ(stats.decisions, 0u);

    Budget deadline;
    deadline.SetWallClockMs(0);
    options.budget = &deadline;
    result = CountWithOptions(instance, options);
    ExpectBrackets(result, exact,
                   "budget_ms=0 seed=" + std::to_string(seed));
    if (result.outcome == CountOutcome::kBounds) {
      EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
    }
  }
}

TEST(BudgetBounds, BracketExactForEveryInjectedCutoff) {
  const std::uint64_t base = testutil::FuzzBaseSeed(7102);
  for (int round = 0; round < 6; ++round) {
    Instance instance = MakeInstance(base + round, 13, 22);
    BigRational exact = ExactCount(instance);
    for (std::uint64_t cutoff :
         {0u, 1u, 2u, 3u, 4u, 5u, 8u, 13u, 16u, 21u, 64u}) {
      Budget budget;
      budget.SetMaxDecisions(cutoff);
      DpllCounter::Options options;
      options.budget = &budget;
      ExpectBrackets(CountWithOptions(instance, options), exact,
                     "seed=" + std::to_string(base + round) +
                         " cutoff=" + std::to_string(cutoff));
    }
  }
}

TEST(BudgetBounds, FaultInjectedCancellationBracketsExact) {
  const std::uint64_t base = testutil::FuzzBaseSeed(7103);
  for (int round = 0; round < 4; ++round) {
    Instance instance = MakeInstance(base + round, 12, 20);
    BigRational exact = ExactCount(instance);
    for (std::uint64_t fire_at : {1u, 2u, 4u, 7u, 8u}) {
      FaultPoint fault(FaultPoint::Site::kDecision,
                       FaultPoint::Action::kCancel, fire_at);
      DpllCounter::Options options;
      options.fault = &fault;
      CountResult result = CountWithOptions(instance, options);
      ExpectBrackets(result, exact,
                     "seed=" + std::to_string(base + round) +
                         " fire_at=" + std::to_string(fire_at));
      if (result.outcome == CountOutcome::kBounds) {
        EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
      }
    }
  }
}

TEST(BudgetBounds, BoundsAreMonotoneInTheBudget) {
  const std::uint64_t base = testutil::FuzzBaseSeed(7104);
  for (int round = 0; round < 4; ++round) {
    Instance instance = MakeInstance(base + round, 13, 22);
    BigRational exact = ExactCount(instance);
    // Sequential search stops at a deterministic point for a decision
    // cap, and a larger cap explores a superset of the same prefix:
    // every extra decision replaces a bracket with mass it contains, so
    // lower bounds may only rise and upper bounds only fall.
    BigRational previous_lower;
    BigRational previous_upper;
    bool have_previous = false;
    for (std::uint64_t cap = 0; cap <= 40; cap += 4) {
      Budget budget;
      budget.SetMaxDecisions(cap);
      DpllCounter::Options options;
      options.budget = &budget;
      CountResult result = CountWithOptions(instance, options);
      ExpectBrackets(result, exact,
                     "seed=" + std::to_string(base + round) +
                         " cap=" + std::to_string(cap));
      BigRational lower = result.value;
      BigRational upper =
          result.outcome == CountOutcome::kExact ? result.value
                                                 : result.upper;
      if (have_previous) {
        EXPECT_GE(lower, previous_lower) << "cap=" << cap;
        EXPECT_LE(upper, previous_upper) << "cap=" << cap;
      }
      previous_lower = std::move(lower);
      previous_upper = std::move(upper);
      have_previous = true;
      if (result.outcome == CountOutcome::kExact) break;
    }
  }
}

TEST(BudgetBounds, GovernedBracketsArePinnedExactly) {
  // A fixed 3-CNF with pairwise non-coprime weight denominators and three
  // zero weights, stopped at fixed decision caps. The brackets are
  // pinned bit for bit, so a change to how bracketed and exact factors
  // combine (or to where the scaled count is divided back) shows up here
  // even when it still brackets the exact count.
  static const int kClauses[][3] = {
      {8, 11, 4},     {2, 1, 7},      {-8, -5, -13},  {8, 9, -1},
      {-10, -4, -13}, {9, 5, -11},    {-4, -11, -5},  {3, -11, -8},
      {-8, 14, 10},   {-6, -14, 16},  {-1, -3, 4},    {11, -15, 6},
      {-4, 15, 8},    {-3, -14, 7},   {-12, -15, -5}, {-13, 6, 4},
      {-14, -4, 1},   {-11, -6, 8},   {1, -9, 5},     {-4, 5, 12},
      {-11, 16, 12},  {-15, 5, -6},   {8, 2, 5},      {-8, -12, -3},
      {-7, 2, 9},     {-10, -1, 8},   {15, -7, 16},   {10, -2, 8},
      {-11, -12, -5}, {1, 14, -16},   {3, 10, -9},    {12, 5, -1},
      {-10, -3, 11},  {16, -4, 6}};
  // (w, w̄) per variable as {numerator, denominator} pairs.
  static const std::int64_t kWeights[][4] = {
      {1, 4, 3, 8},  {5, 6, 3, 10}, {0, 1, 5, 6},  {3, 8, 1, 1},
      {7, 12, 4, 9}, {2, 1, 7, 12}, {1, 1, 9, 4},  {5, 6, 0, 1},
      {3, 10, 5, 6}, {9, 4, 1, 4},  {1, 15, 2, 1}, {4, 9, 1, 15},
      {1, 4, 3, 8},  {5, 6, 3, 10}, {0, 1, 5, 6},  {3, 8, 1, 1}};
  Instance instance;
  instance.cnf.variable_count = 16;
  for (const auto& clause : kClauses) {  // DIMACS-style: ±(variable + 1)
    prop::Clause& out = instance.cnf.clauses.emplace_back();
    for (int lit : clause) {
      out.push_back(prop::MakeLit(prop::VarId(std::abs(lit) - 1), lit > 0));
    }
  }
  instance.weights = wmc::WeightMap(16);
  for (prop::VarId v = 0; v < 16; ++v) {
    const std::int64_t* w = kWeights[v];
    instance.weights.Set(v, BigRational::Fraction(w[0], w[1]),
                         BigRational::Fraction(w[2], w[3]));
  }
  const BigRational exact = ExactCount(instance);
  EXPECT_EQ(exact.ToString(), "721906698629/275188285440");

  struct Pinned {
    std::uint64_t cap;
    const char* value;
    const char* upper;
  };
  static const Pinned kPinned[] = {
      {1, "0", "31600826309195/2229025112064"},
      {3, "0", "12039721967845/1114512556032"},
      {8, "1141576135/2293235712", "37969971772459/4458050224128"},
      {20, "1612289036687/825564856320", "37420471742183/7430083706880"}};
  for (const Pinned& pinned : kPinned) {
    SCOPED_TRACE("cap=" + std::to_string(pinned.cap));
    Budget budget;
    budget.SetMaxDecisions(pinned.cap);
    DpllCounter::Options options;
    options.budget = &budget;
    CountResult result = CountWithOptions(instance, options);
    EXPECT_EQ(result.outcome, CountOutcome::kBounds);
    EXPECT_EQ(result.stop_reason, StopReason::kDecisions);
    EXPECT_EQ(result.value.ToString(), pinned.value);
    EXPECT_EQ(result.upper.ToString(), pinned.upper);
  }
}

TEST(BudgetBounds, GenerousBudgetIsBitIdenticalToUngoverned) {
  const std::uint64_t base = testutil::FuzzBaseSeed(7105);
  for (int round = 0; round < 4; ++round) {
    Instance instance = MakeInstance(base + round, 13, 22);
    BigRational exact = ExactCount(instance);
    Budget budget;
    budget.SetMaxDecisions(std::uint64_t{1} << 40);
    budget.SetWallClockMs(600'000);
    DpllCounter::Options options;
    options.budget = &budget;
    CountResult result = CountWithOptions(instance, options);
    ASSERT_EQ(result.outcome, CountOutcome::kExact);
    EXPECT_EQ(result.value, exact);
    // Bit-identical, not just numerically equal.
    EXPECT_EQ(result.value.ToString(), exact.ToString());
    EXPECT_EQ(result.stop_reason, StopReason::kNone);
  }
}

TEST(BudgetBounds, NegativeWeightsDegradeToAborted) {
  const std::uint64_t base = testutil::FuzzBaseSeed(7107);
  for (int round = 0; round < 8; ++round) {
    Instance instance =
        MakeInstance(base + round, 12, 20, /*allow_negative=*/true);
    bool has_negative = false;
    for (prop::VarId v = 0; v < 12; ++v) {
      const wmc::VariableWeights& w = instance.weights.Get(v);
      if (w.positive.Sign() < 0 || w.negative.Sign() < 0) {
        has_negative = true;
        break;
      }
    }
    if (!has_negative) continue;
    BigRational exact = ExactCount(instance);

    Budget budget;
    budget.SetMaxDecisions(0);
    DpllCounter::Options options;
    options.budget = &budget;
    CountResult result = CountWithOptions(instance, options);
    if (result.outcome == CountOutcome::kExact) {
      // Unit propagation alone finished the count — no bracket needed.
      EXPECT_EQ(result.value, exact);
    } else {
      // A [0, mass] bracket is unsound under negative weights; the
      // search must refuse to certify bounds rather than report wrong
      // ones.
      EXPECT_EQ(result.outcome, CountOutcome::kAborted);
      EXPECT_EQ(result.stop_reason, StopReason::kDecisions);
    }
  }
}

TEST(BudgetBounds, MemoryFaultOnCacheInsertYieldsBounds) {
  Instance instance = MakeInstance(testutil::FuzzBaseSeed(7108), 13, 22);
  BigRational exact = ExactCount(instance);
  FaultPoint fault(FaultPoint::Site::kCacheInsert,
                   FaultPoint::Action::kMemoryExhausted, 1);
  DpllCounter::Options options;
  options.fault = &fault;
  CountResult result = CountWithOptions(instance, options);
  ExpectBrackets(result, exact, "memory fault at first cache insert");
  if (result.outcome == CountOutcome::kBounds) {
    EXPECT_EQ(result.stop_reason, StopReason::kMemory);
  }
}

// ---------------------------------------------------------------------
// Cooperative cancellation from another thread.

TEST(BudgetCancellation, SearchStopsPromptlyOnCancelFromAnotherThread) {
  // A grounded instance big enough that nobody finishes it honestly
  // before the token fires (triangle blow-up at n=6).
  logic::Vocabulary vocab;
  logic::Formula phi = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocab);

  CancelToken token;
  DpllCounter::Options options;
  options.cancel = &token;

  // The count runs on its own thread; this thread cancels it.
  DpllCounter::CountResult result;
  std::thread worker([&] {
    result = grounding::GroundedWFOMCBounded(phi, vocab, 6, options);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto cancelled_at = std::chrono::steady_clock::now();
  token.RequestCancel();
  worker.join();
  double latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    cancelled_at)
          .count();

  // The search polls the token at every decision, so wind-down is
  // bounded by one decision plus the unwind — generous slack here for
  // sanitizer builds and loaded CI machines.
  EXPECT_LT(latency_seconds, 10.0);
  EXPECT_EQ(result.outcome, CountOutcome::kBounds);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
  EXPECT_LE(result.value, result.upper);
}

TEST(BudgetCancellation, CancelBeforeStartReturnsImmediately) {
  Instance instance = MakeInstance(testutil::FuzzBaseSeed(7109), 12, 20);
  BigRational exact = ExactCount(instance);
  CancelToken token;
  token.RequestCancel();
  DpllCounter::Options options;
  options.cancel = &token;
  CountResult result = CountWithOptions(instance, options);
  ExpectBrackets(result, exact, "pre-cancelled token");
  if (result.outcome == CountOutcome::kBounds) {
    EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
  }
}

TEST(BudgetCancellation, CountThrowsWhenGovernedRunStopsEarly) {
  // Some random instances collapse under unit propagation alone and stay
  // exact even with a zero decision cap — scan seeds until one actually
  // has to stop, then pin the throwing contract on it.
  const std::uint64_t base = testutil::FuzzBaseSeed(7110);
  bool exercised = false;
  for (int round = 0; round < 16 && !exercised; ++round) {
    Instance instance = MakeInstance(base + round, 13, 22);
    Budget probe_budget;
    probe_budget.SetMaxDecisions(0);
    DpllCounter::Options options;
    options.budget = &probe_budget;
    if (CountWithOptions(instance, options).outcome == CountOutcome::kExact) {
      continue;
    }
    Budget budget;
    budget.SetMaxDecisions(0);
    options.budget = &budget;
    DpllCounter counter(instance.cnf, instance.weights, options);
    EXPECT_THROW(counter.Count(), std::runtime_error);
    exercised = true;
  }
  EXPECT_TRUE(exercised) << "no seed in range required a decision";
}

// ---------------------------------------------------------------------
// Byte-accounted component cache.

wmc::ComponentKey MakeKey(std::uint32_t tag, std::size_t words) {
  wmc::ComponentKey key(words, tag);
  key.push_back(wmc::kComponentKeySeparator);
  return key;
}

TEST(CacheBytes, ResidentBytesTrackInsertionsExactly) {
  ComponentCache cache(/*max_entries=*/64);
  std::size_t expected_bytes = 0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    wmc::ComponentKey key = MakeKey(i, 4 + i);
    BigInt value = BigInt::Pow(BigInt(3 * i + 1), 4 * i);
    expected_bytes += ComponentCache::EntryBytes(key, value);
    cache.Insert(std::move(key), /*hash=*/i, std::move(value));
  }
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.bytes(), expected_bytes);
}

TEST(CacheBytes, ByteBoundDrivesEviction) {
  wmc::ComponentKey probe = MakeKey(0, 8);
  std::size_t per_entry =
      ComponentCache::EntryBytes(probe, BigInt(1));
  // Room for about four entries; the entry bound never binds.
  ComponentCache cache(/*max_entries=*/1024, /*max_bytes=*/4 * per_entry);
  for (std::uint32_t i = 0; i < 64; ++i) {
    cache.Insert(MakeKey(i, 8), /*hash=*/i, BigInt(1));
    EXPECT_LE(cache.bytes(), cache.max_bytes());
  }
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GT(cache.size(), 0u);
  // The survivors are the most recent inserts (FIFO eviction).
  EXPECT_NE(cache.Lookup(MakeKey(63, 8), /*hash=*/63), nullptr);
}

TEST(CacheBytes, OversizedEntryIsSkippedNotThrashed) {
  wmc::ComponentKey small = MakeKey(1, 2);
  std::size_t small_bytes =
      ComponentCache::EntryBytes(small, BigInt(1));
  ComponentCache cache(/*max_entries=*/16, /*max_bytes=*/2 * small_bytes);
  cache.Insert(std::move(small), /*hash=*/1, BigInt(1));
  ASSERT_EQ(cache.size(), 1u);

  // An entry bigger than the whole byte bound must not evict everything
  // only to fail to fit anyway.
  cache.Insert(MakeKey(2, 4096), /*hash=*/2, BigInt(1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Lookup(MakeKey(1, 2), /*hash=*/1), nullptr);
}

TEST(CacheBytes, ReplacementKeepsAccountingBalanced) {
  ComponentCache cache(/*max_entries=*/8);
  wmc::ComponentKey key = MakeKey(5, 4);
  cache.Insert(key, /*hash=*/5, BigInt(1));
  std::size_t bytes_small = cache.bytes();
  // Same key, much larger payload: the accounting must follow the
  // replacement, not accumulate. (Exact byte values depend on vector
  // and limb capacities, so assert the shape, not a magic number.)
  BigInt big = BigInt::Pow(BigInt(7), 64);
  cache.Insert(key, /*hash=*/5, big);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(cache.bytes(), bytes_small);
  // Replacing back with the small payload must release the difference.
  cache.Insert(key, /*hash=*/5, BigInt(1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), bytes_small);
}

TEST(CacheBytes, CounterHonoursByteCeilingUnderBudgetMemoryLimit) {
  Instance instance = MakeInstance(testutil::FuzzBaseSeed(7111), 14, 24);
  BigRational exact = ExactCount(instance);
  Budget budget;
  budget.SetMaxMemoryBytes(1 << 12);  // 4 KiB cache ceiling
  DpllCounter::Options options;
  options.budget = &budget;
  DpllCounter::Stats stats;
  CountResult result = CountWithOptions(instance, options, &stats);
  // A memory ceiling alone never stops the search — it shrinks the
  // cache, trading hits for recomputation; the count stays exact.
  ASSERT_EQ(result.outcome, CountOutcome::kExact);
  EXPECT_EQ(result.value, exact);
  EXPECT_LE(stats.cache_bytes, std::uint64_t{1} << 12);
}

// ---------------------------------------------------------------------
// Engine surface: bounds through WFOMC/sweeps, aborts through compile.

TEST(BudgetEngine, SweepDegradesToBoundsThatBracketTheExactSweep) {
  logic::Vocabulary vocab;
  logic::Formula phi = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocab);

  api::Engine exact_engine(vocab);
  api::Engine::SweepResult exact =
      exact_engine.WFOMCSweep(phi, 1, 4, api::Method::kGrounded);
  ASSERT_EQ(exact.outcome, api::Outcome::kExact);

  runtime::Budget budget;
  budget.SetMaxDecisions(8);  // drains across the whole sweep
  api::QueryOptions query;
  query.budget = &budget;
  api::Engine governed_engine(vocab);
  api::Engine::SweepResult governed = governed_engine.WFOMCSweep(
      phi, 1, 4, api::Method::kGrounded, query);

  ASSERT_EQ(governed.points.size(), exact.points.size());
  bool any_bounds = false;
  for (std::size_t i = 0; i < governed.points.size(); ++i) {
    const api::Engine::SweepPoint& point = governed.points[i];
    const BigRational& truth = exact.points[i].value;
    SCOPED_TRACE("n=" + std::to_string(point.domain_size));
    if (point.outcome == api::Outcome::kExact) {
      EXPECT_EQ(point.value, truth);
    } else {
      ASSERT_EQ(point.outcome, api::Outcome::kBounds);
      ASSERT_TRUE(point.bounds.has_value());
      EXPECT_LE(point.bounds->lower, truth);
      EXPECT_LE(truth, point.bounds->upper);
      any_bounds = true;
    }
  }
  EXPECT_TRUE(any_bounds);
  EXPECT_EQ(governed.outcome, api::Outcome::kBounds);
  EXPECT_EQ(governed.stop_reason, StopReason::kDecisions);
}

TEST(BudgetEngine, CompileDiscardsPartialTraceAndRetriesOnTheSameEngine) {
  logic::Vocabulary vocab;
  logic::Formula phi = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocab);
  const api::CompileOptions grounded_at_3{.domain_size = 3,
                                          .method = api::Method::kGrounded};

  runtime::Budget budget;
  budget.SetMaxDecisions(0);
  api::QueryOptions query;
  query.budget = &budget;
  api::Engine engine(vocab);

  api::CompileResult result = engine.Compile(phi, grounded_at_3, query);
  EXPECT_EQ(result.outcome, api::Outcome::kAborted);
  EXPECT_EQ(result.stop_reason, StopReason::kDecisions);
  EXPECT_FALSE(result.compiled.has_value());

  // The same engine with the cap lifted compiles fine — governance is
  // per-budget state, not a poisoned engine.
  budget.SetMaxDecisions(runtime::Budget::kUnlimited);
  api::CompileResult retry = engine.Compile(phi, grounded_at_3, query);
  ASSERT_EQ(retry.outcome, api::Outcome::kExact);
  ASSERT_TRUE(retry.compiled.has_value());
  api::Engine ungoverned(vocab);
  EXPECT_EQ(retry.compiled->compile_count(),
            ungoverned.WFOMC(phi, 3, api::Method::kGrounded).value);
}

// The triangle is ∃-prefixed, so the engine counts ¬Φ and a bracket
// [L, U] on ¬Φ reaches the caller as [T − U, T − L]. Checked against a
// direct count of Φ that no polarity step touches, and against ¬Φ's own
// bracket under the same cap. Negative weights certify no bracket, so a
// stopped count stays aborted rather than becoming a wrong exact value.
TEST(BudgetEngine, ComplementedBracketMirrorsTheComplementsBracket) {
  logic::Vocabulary vocab;
  logic::Formula phi = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocab);
  vocab.SetWeights(0, BigRational::Fraction(4, 7), BigRational::Fraction(5, 6));
  const std::uint64_t n = 4;
  const BigRational truth = grounding::GroundedWFOMC(phi, vocab, n);
  const BigRational total = vocab.TotalWeight(n);
  const logic::Formula negation = logic::ToNNF(logic::Not(phi));
  api::Engine engine(vocab);
  for (std::uint64_t cap : {1u, 2u, 5u}) {
    SCOPED_TRACE("cap=" + std::to_string(cap));
    Budget budget;
    budget.SetMaxDecisions(cap);
    api::QueryOptions query;
    query.budget = &budget;
    api::Engine::Result result =
        engine.WFOMC(phi, n, api::Method::kGrounded, query);
    ASSERT_EQ(result.outcome, api::Outcome::kBounds);
    EXPECT_EQ(result.stop_reason, StopReason::kDecisions);
    ASSERT_TRUE(result.bounds.has_value());
    EXPECT_LE(result.bounds->lower, truth);
    EXPECT_LE(truth, result.bounds->upper);
    EXPECT_LT(result.bounds->lower, result.bounds->upper);
    EXPECT_EQ(result.value, result.bounds->lower);

    Budget same_cap;
    same_cap.SetMaxDecisions(cap);
    DpllCounter::Options options;
    options.budget = &same_cap;
    CountResult complement =
        grounding::GroundedWFOMCBounded(negation, vocab, n, options);
    ASSERT_EQ(complement.outcome, CountOutcome::kBounds);
    EXPECT_EQ(result.bounds->lower, total - complement.upper);
    EXPECT_EQ(result.bounds->upper, total - complement.value);
  }

  vocab.SetWeights(0, BigRational(-1), BigRational(2));
  api::Engine negative(vocab);
  Budget budget;
  budget.SetMaxDecisions(1);
  api::QueryOptions query;
  query.budget = &budget;
  api::Engine::Result result =
      negative.WFOMC(phi, n, api::Method::kGrounded, query);
  EXPECT_EQ(result.outcome, api::Outcome::kAborted);
  EXPECT_FALSE(result.bounds.has_value());
  EXPECT_TRUE(result.value.IsZero());
}

// Cancellation and fault injection travel through QueryOptions exactly
// like a budget: the grounded search brackets, the compile trace aborts.

TEST(BudgetEngine, PreCancelledTokenBracketsWfomcAndSweep) {
  logic::Vocabulary vocab;
  logic::Formula phi = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocab);
  api::Engine engine(vocab);
  // The triangle is counted through its complement, whose search at n = 2
  // finishes by unit propagation alone, before the first cancellation
  // poll; from n = 3 on it branches, so a pre-cancelled token stops it.
  api::Engine::SweepResult exact =
      engine.WFOMCSweep(phi, 3, 4, api::Method::kGrounded);
  ASSERT_EQ(exact.outcome, api::Outcome::kExact);

  CancelToken token;
  token.RequestCancel();
  api::QueryOptions query;
  query.cancel = &token;

  api::Engine::Result single =
      engine.WFOMC(phi, 3, api::Method::kGrounded, query);
  EXPECT_EQ(single.outcome, api::Outcome::kBounds);
  EXPECT_EQ(single.stop_reason, StopReason::kCancelled);
  ASSERT_TRUE(single.bounds.has_value());
  EXPECT_LE(single.bounds->lower, exact.points[0].value);
  EXPECT_LE(exact.points[0].value, single.bounds->upper);
  EXPECT_EQ(single.value, single.bounds->lower);

  api::Engine::SweepResult sweep =
      engine.WFOMCSweep(phi, 3, 4, api::Method::kGrounded, query);
  EXPECT_EQ(sweep.outcome, api::Outcome::kBounds);
  EXPECT_EQ(sweep.stop_reason, StopReason::kCancelled);
  ASSERT_EQ(sweep.points.size(), exact.points.size());
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const api::Engine::SweepPoint& point = sweep.points[i];
    SCOPED_TRACE("n=" + std::to_string(point.domain_size));
    EXPECT_EQ(point.outcome, api::Outcome::kBounds);
    EXPECT_EQ(point.stop_reason, StopReason::kCancelled);
    ASSERT_TRUE(point.bounds.has_value());
    EXPECT_LE(point.bounds->lower, exact.points[i].value);
    EXPECT_LE(exact.points[i].value, point.bounds->upper);
  }
}

TEST(BudgetEngine, PreCancelledTokenAbortsGroundedCompile) {
  logic::Vocabulary vocab;
  logic::Formula phi = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocab);
  api::Engine engine(vocab);
  CancelToken token;
  token.RequestCancel();
  api::QueryOptions query;
  query.cancel = &token;
  api::CompileResult result = engine.Compile(
      phi, {.domain_size = 3, .method = api::Method::kGrounded}, query);
  EXPECT_EQ(result.outcome, api::Outcome::kAborted);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
  EXPECT_FALSE(result.compiled.has_value());
}

TEST(BudgetEngine, DecisionFaultThroughQueryOptionsBracketsTheCount) {
  logic::Vocabulary vocab;
  logic::Formula phi = logic::Parse(
      "exists x exists y exists z (S(x,y) & S(y,z) & S(z,x))", &vocab);
  api::Engine engine(vocab);
  BigRational exact = engine.WFOMC(phi, 3, api::Method::kGrounded).value;
  bool any_bounds = false;
  for (std::uint64_t fire_at : {1u, 2u, 5u, 17u}) {
    SCOPED_TRACE("fire_at=" + std::to_string(fire_at));
    FaultPoint fault(FaultPoint::Site::kDecision,
                     FaultPoint::Action::kCancel, fire_at);
    api::QueryOptions query;
    query.fault = &fault;
    api::Engine::Result result =
        engine.WFOMC(phi, 3, api::Method::kGrounded, query);
    if (result.outcome == api::Outcome::kExact) {
      EXPECT_EQ(result.value, exact);
      continue;
    }
    ASSERT_EQ(result.outcome, api::Outcome::kBounds);
    EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
    ASSERT_TRUE(result.bounds.has_value());
    EXPECT_LE(result.bounds->lower, exact);
    EXPECT_LE(exact, result.bounds->upper);
    any_bounds = true;
  }
  EXPECT_TRUE(any_bounds);
}

}  // namespace
}  // namespace swfomc
