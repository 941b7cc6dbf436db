#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "chase/match_plan.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "relational/atom.h"
#include "relational/homomorphism.h"
#include "relational/instance.h"
#include "relational/schema.h"

// Unit tests for the compiled match-plan layer (chase/match_plan.h):
// static access-path decisions, greedy join ordering, dense register
// frames, cache compile/hit accounting (including the metrics-reset
// window and reuse while the join order holds), and the text/JSON dumps.
// The system-level equivalence with the full-scan matcher is soaked
// separately by tests/store_differential_test.cc.

namespace qimap {
namespace {

Value Var(const char* name) { return Value::MakeVariable(name); }
Value Const(const char* name) { return Value::MakeConstant(name); }

// Reads a named counter from the merged snapshot (0 when unregistered).
uint64_t Counter(const std::string& name) {
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(MatchPlanTest, GroundAtomCompilesToPointLookup) {
  SchemaPtr schema = MakeSchema("P/2");
  Instance inst = MustParseInstance(schema, "P(a,b), P(c,d)");
  Conjunction body = {{0, {Const("a"), Const("b")}}};
  MatchPlan plan = CompileMatchPlan(body, inst, {}, {});
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].mode, PlanStepMode::kPointLookup);
  EXPECT_TRUE(plan.stats_free);
  EXPECT_TRUE(plan.reg_vars.empty());
}

TEST(MatchPlanTest, PartiallyBoundAtomCompilesToProbe) {
  SchemaPtr schema = MakeSchema("P/2");
  Instance inst = MustParseInstance(schema, "P(a,b), P(a,c), P(b,d)");
  Conjunction body = {{0, {Const("a"), Var("y")}}};
  MatchPlan plan = CompileMatchPlan(body, inst, {}, {});
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].mode, PlanStepMode::kProbe);
  ASSERT_EQ(plan.steps[0].probe_cols.size(), 1u);
  EXPECT_EQ(plan.steps[0].probe_cols[0], 0u);
  ASSERT_EQ(plan.reg_vars.size(), 1u);
  EXPECT_EQ(plan.reg_vars[0], Var("y"));
}

TEST(MatchPlanTest, UnboundAtomCompilesToScan) {
  SchemaPtr schema = MakeSchema("P/2");
  Instance inst = MustParseInstance(schema, "P(a,b)");
  Conjunction body = {{0, {Var("x"), Var("y")}}};
  MatchPlan plan = CompileMatchPlan(body, inst, {}, {});
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].mode, PlanStepMode::kScan);
}

// Bound-variable propagation is resolved statically: once the first atom
// binds x and y, the second atom's x-occurrence makes it a probe, and the
// plan's registers are dense slots in first-occurrence order.
TEST(MatchPlanTest, PropagatedBindingsBecomeProbesAndRegistersAreDense) {
  SchemaPtr schema = MakeSchema("P/2, Q/2");
  Instance inst = MustParseInstance(
      schema, "P(a,b), Q(a,x1), Q(a,x2), Q(b,x3), Q(c,x4), Q(d,x5)");
  Conjunction body = {{0, {Var("x"), Var("y")}},
                      {1, {Var("x"), Var("z")}}};
  MatchPlan plan = CompileMatchPlan(body, inst, {}, {});
  ASSERT_EQ(plan.steps.size(), 2u);
  // P (1 row) orders ahead of Q (5 rows); both start all-unbound.
  EXPECT_EQ(plan.perm, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(plan.steps[0].mode, PlanStepMode::kScan);
  EXPECT_EQ(plan.steps[1].mode, PlanStepMode::kProbe);
  ASSERT_EQ(plan.steps[1].probe_cols.size(), 1u);
  EXPECT_EQ(plan.steps[1].probe_cols[0], 0u);
  // Registers: x, y from step 0, z from step 1 — dense, in order.
  ASSERT_EQ(plan.reg_vars.size(), 3u);
  EXPECT_EQ(plan.reg_vars[0], Var("x"));
  EXPECT_EQ(plan.reg_vars[1], Var("y"));
  EXPECT_EQ(plan.reg_vars[2], Var("z"));
  // The second x-occurrence is a kCheck against x's register.
  ASSERT_EQ(plan.steps[1].args.size(), 2u);
  EXPECT_EQ(plan.steps[1].args[0].kind, PlanArgKind::kCheck);
  EXPECT_EQ(plan.steps[1].args[0].reg, 0u);
  EXPECT_EQ(plan.steps[1].args[1].kind, PlanArgKind::kBind);
  EXPECT_EQ(plan.steps[1].args[1].reg, 2u);
  EXPECT_FALSE(plan.stats_free);
}

// Keys of the partial assignment preload registers and count as bound for
// the access-path decision.
TEST(MatchPlanTest, PartialKeysPreloadRegistersAndDriveProbes) {
  SchemaPtr schema = MakeSchema("P/2");
  Instance inst = MustParseInstance(schema, "P(a,b), P(c,d), P(c,e)");
  Conjunction body = {{0, {Var("x"), Var("y")}}};
  Assignment partial = {{Var("x"), Const("c")}};
  MatchPlan plan = CompileMatchPlan(body, inst, partial, {});
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].mode, PlanStepMode::kProbe);
  ASSERT_EQ(plan.preload_regs.size(), 1u);
  EXPECT_EQ(plan.reg_vars[plan.preload_regs[0]], Var("x"));
  // And executing it honors the preloaded value.
  std::vector<Assignment> found;
  size_t n = ForEachHomomorphism(body, inst, partial, {},
                                 [&](const Assignment& h) {
                                   found.push_back(h);
                                   return true;
                                 });
  EXPECT_EQ(n, 2u);
  for (const Assignment& h : found) {
    EXPECT_EQ(h.at(Var("x")), Const("c"));
  }
}

// Zero-extent rule of the greedy order: an empty relation is picked first
// no matter how many unbound arguments it carries.
TEST(MatchPlanTest, ZeroExtentAtomIsOrderedFirst) {
  SchemaPtr schema = MakeSchema("B/1, Empty/3");
  Instance inst = MustParseInstance(schema, "B(a), B(b), B(c)");
  Conjunction body = {{0, {Var("x")}},
                      {1, {Var("x"), Var("y"), Var("z")}}};
  MatchPlan plan = CompileMatchPlan(body, inst, {}, {});
  ASSERT_EQ(plan.perm.size(), 2u);
  EXPECT_EQ(plan.perm[0], 1u) << "the empty atom must run first";
  EXPECT_EQ(plan.perm[1], 0u);
}

// The compiled path enumerates exactly the interpretive full-scan
// matcher's homomorphism set — including under side conditions and frozen
// kinds.
TEST(MatchPlanTest, PlanAndInterpretiveEnumerateTheSameSet) {
  SchemaPtr schema = MakeSchema("P/2, Q/1");
  Instance inst = MustParseInstance(
      schema, "P(a,b), P(b,a), P(a,a), P(_N1,b), Q(a), Q(b), Q(_N2)");
  const std::vector<Conjunction> bodies = {
      {{0, {Var("x"), Var("y")}}},
      {{0, {Var("x"), Var("y")}}, {1, {Var("y")}}},
      {{0, {Var("x"), Var("x")}}},
      {{0, {Const("a"), Var("y")}}, {0, {Var("y"), Var("z")}}},
  };
  for (size_t b = 0; b < bodies.size(); ++b) {
    for (bool map_nulls : {true, false}) {
      HomSearchOptions plan;
      plan.map_nulls = map_nulls;
      plan.inequalities = {{Var("x"), Var("y")}};
      HomSearchOptions scan = plan;
      scan.use_index = false;
      std::set<Assignment> scan_set, plan_set;
      for (const Assignment& h : FindAllHomomorphisms(bodies[b], inst, {},
                                                      scan)) {
        scan_set.insert(h);
      }
      for (const Assignment& h : FindAllHomomorphisms(bodies[b], inst, {},
                                                      plan)) {
        plan_set.insert(h);
      }
      EXPECT_EQ(scan_set, plan_set)
          << "body " << b << " map_nulls " << map_nulls;
      EXPECT_FALSE(scan_set.empty() && b == 0);
    }
  }
}

TEST(MatchPlanTest, CacheCountsCompilesAndHitsPerMetricsWindow) {
  obs::ResetMetrics();
  SchemaPtr schema = MakeSchema("P/2, Q/2");
  Instance inst = MustParseInstance(schema, "P(a,b), Q(b,c)");
  Conjunction body = {{0, {Var("x"), Var("y")}},
                      {1, {Var("y"), Var("z")}}};
  auto p1 = GetOrCompileMatchPlan(body, inst, {}, {});
  auto p2 = GetOrCompileMatchPlan(body, inst, {}, {});
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p1.get(), p2.get()) << "second fetch must be the cached plan";
  EXPECT_EQ(Counter("chase.plan.compiles"), 1u);
  EXPECT_EQ(Counter("chase.plan.cache_hits"), 1u);

  // Growing P past Q reorders the join: recompile in place.
  ASSERT_TRUE(inst.AddFact(0, {Const("a"), Const("c")}).ok());
  auto p3 = GetOrCompileMatchPlan(body, inst, {}, {});
  EXPECT_NE(p3.get(), p2.get());
  EXPECT_EQ(Counter("chase.plan.compiles"), 2u);

  // An explicit clear forces a fresh compile.
  ClearMatchPlanCache();
  auto p4 = GetOrCompileMatchPlan(body, inst, {}, {});
  EXPECT_NE(p4.get(), p3.get());
  EXPECT_EQ(Counter("chase.plan.compiles"), 3u);

  // A metrics reset opens a new counter window and empties the cache, so
  // the counters are a pure function of the window: the same fetch is a
  // compile again, never a history-dependent hit.
  obs::ResetMetrics();
  auto p5 = GetOrCompileMatchPlan(body, inst, {}, {});
  ASSERT_NE(p5, nullptr);
  EXPECT_EQ(Counter("chase.plan.compiles"), 1u);
  EXPECT_EQ(Counter("chase.plan.cache_hits"), 0u);
}

// Stats-free plans (single-atom and fully-determined bodies) are served
// from the thread-local front cache; they still respect the reset window.
TEST(MatchPlanTest, StatsFreePlansHitTheFrontCache) {
  obs::ResetMetrics();
  SchemaPtr schema = MakeSchema("P/2");
  Instance inst = MustParseInstance(schema, "P(a,b)");
  Conjunction body = {{0, {Const("a"), Const("b")}}};
  auto p1 = GetOrCompileMatchPlan(body, inst, {}, {});
  EXPECT_TRUE(p1->stats_free);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(GetOrCompileMatchPlan(body, inst, {}, {}).get(), p1.get());
  }
  EXPECT_EQ(Counter("chase.plan.compiles"), 1u);
  EXPECT_EQ(Counter("chase.plan.cache_hits"), 5u);
}

// A cached plan stays valid while the greedy order over the current
// statistics equals its perm: statistics that move without reordering
// the join are cache hits, and the kept plan is exactly the plan a fresh
// compile against the grown instance produces.
TEST(MatchPlanTest, StatisticsThatKeepTheOrderReuseThePlan) {
  obs::ResetMetrics();
  SchemaPtr schema = MakeSchema("P/2, Q/2");
  Instance inst = MustParseInstance(
      schema, "P(a,b), Q(b,c), Q(b,d), Q(e,f), Q(g,h)");
  Conjunction body = {{0, {Var("x"), Var("y")}},
                      {1, {Var("y"), Var("z")}}};
  auto p1 = GetOrCompileMatchPlan(body, inst, {}, {});
  ASSERT_EQ(p1->perm, (std::vector<size_t>{0, 1}));
  EXPECT_FALSE(p1->stats_free);

  // Row and distinct counts move on both relations; P stays the smaller.
  ASSERT_TRUE(inst.AddFact(0, {Const("e"), Const("f")}).ok());
  ASSERT_TRUE(inst.AddFact(1, {Const("f"), Const("i")}).ok());
  ASSERT_TRUE(inst.AddFact(1, {Const("b"), Const("j")}).ok());
  auto p2 = GetOrCompileMatchPlan(body, inst, {}, {});
  EXPECT_EQ(p2.get(), p1.get()) << "order held: the plan must be reused";
  EXPECT_EQ(Counter("chase.plan.compiles"), 1u);
  EXPECT_EQ(Counter("chase.plan.cache_hits"), 1u);

  MatchPlan fresh = CompileMatchPlan(body, inst, {}, {});
  EXPECT_EQ(p2->ToJson(*schema), fresh.ToJson(*schema));
}

// Keys of the partial assignment count as bound in the order check: with
// x and z preloaded, each atom has one unbound argument, so the
// rows/distinct estimate of its bound column decides. A statistics change
// that flips the order recompiles in place.
TEST(MatchPlanTest, ChangedOrderRecompiles) {
  obs::ResetMetrics();
  SchemaPtr schema = MakeSchema("P/2, Q/2");
  Instance inst = MustParseInstance(
      schema, "P(a,b), P(a,c), P(a,d), Q(a,b), Q(b,c), Q(c,d), Q(d,e)");
  Conjunction body = {{0, {Var("x"), Var("y")}},
                      {1, {Var("z"), Var("y")}}};
  Assignment partial = {{Var("x"), Const("a")}, {Var("z"), Const("b")}};
  // P: 3 rows over 1 distinct x (estimate 3); Q: 4 rows over 4 distinct
  // z (estimate 1). Q runs first.
  auto p1 = GetOrCompileMatchPlan(body, inst, partial, {});
  ASSERT_EQ(p1->perm, (std::vector<size_t>{1, 0}));

  // Q grows to 12 rows over the same 4 distinct z: estimate 3 ties P,
  // and the lower index wins.
  for (const char* y : {"f", "g", "h", "i", "j", "k", "l", "m"}) {
    ASSERT_TRUE(inst.AddFact(1, {Const("a"), Const(y)}).ok());
  }
  auto p2 = GetOrCompileMatchPlan(body, inst, partial, {});
  EXPECT_NE(p2.get(), p1.get());
  EXPECT_EQ(p2->perm, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(Counter("chase.plan.compiles"), 2u);
  EXPECT_EQ(Counter("chase.plan.cache_hits"), 0u);
  EXPECT_EQ(p2->ToJson(*schema),
            CompileMatchPlan(body, inst, partial, {}).ToJson(*schema));

  // The recompiled plan replaced the old one in its slot.
  EXPECT_EQ(GetOrCompileMatchPlan(body, inst, partial, {}).get(), p2.get());
  EXPECT_EQ(Counter("chase.plan.cache_hits"), 1u);
}

TEST(MatchPlanTest, DumpsRenderTextAndValidJson) {
  SchemaPtr schema = MakeSchema("P/2, Q/2");
  Instance inst = MustParseInstance(schema, "P(a,b), Q(b,c), Q(b,d)");
  Conjunction body = {{0, {Const("a"), Var("y")}},
                      {1, {Var("y"), Var("z")}}};
  MatchPlan plan = CompileMatchPlan(body, inst, {}, {});
  std::string text = plan.ToText(*schema);
  EXPECT_NE(text.find("P/2"), std::string::npos);
  EXPECT_NE(text.find("Q/2"), std::string::npos);
  EXPECT_NE(text.find("probe"), std::string::npos) << text;

  Result<obs::JsonValue> json = obs::ParseJson(plan.ToJson(*schema));
  ASSERT_TRUE(json.ok()) << plan.ToJson(*schema);
  const obs::JsonValue* steps = json->Find("steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_EQ(steps->items.size(), plan.steps.size());
  const obs::JsonValue* order = json->Find("order");
  ASSERT_NE(order, nullptr);
  EXPECT_EQ(order->items.size(), plan.perm.size());
  ASSERT_NE(json->Find("registers"), nullptr);
  ASSERT_NE(json->Find("stats_free"), nullptr);
}

}  // namespace
}  // namespace qimap
