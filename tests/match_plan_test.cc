#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chase/match_plan.h"
#include "core/soundness.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "relational/atom.h"
#include "relational/homomorphism.h"
#include "relational/instance.h"
#include "relational/schema.h"
#include "workload/paper_catalog.h"

// Unit tests for the compiled match-plan layer (chase/match_plan.h):
// static access-path decisions, greedy join ordering, dense register
// frames, per-depth scratch plans for nested searches, counters that
// depend on the search alone, and the text/JSON dumps.
// The system-level equivalence with the full-scan matcher is soaked
// separately by tests/store_differential_test.cc.

namespace qimap {
namespace {

Value Var(const char* name) { return Value::MakeVariable(name); }
Value Const(const char* name) { return Value::MakeConstant(name); }

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

// Keys of the partial assignment count as bound in the greedy order: with
// x and z preloaded, each atom has one unbound argument, so the
// rows/distinct estimate of its bound column decides, and a statistics
// change that moves the estimates reorders the join.
TEST(MatchPlanTest, GreedyOrderFollowsStatistics) {
  SchemaPtr schema = MakeSchema("P/2, Q/2");
  Instance inst = MustParseInstance(
      schema, "P(a,b), P(a,c), P(a,d), Q(a,b), Q(b,c), Q(c,d), Q(d,e)");
  Conjunction body = {{0, {Var("x"), Var("y")}},
                      {1, {Var("z"), Var("y")}}};
  Assignment partial = {{Var("x"), Const("a")}, {Var("z"), Const("b")}};
  // P: 3 rows over 1 distinct x (estimate 3); Q: 4 rows over 4 distinct
  // z (estimate 1). Q runs first.
  EXPECT_EQ(CompileMatchPlan(body, inst, partial, {}).perm,
            (std::vector<size_t>{1, 0}));

  // Q grows to 12 rows over the same 4 distinct z: estimate 3 ties P,
  // and the lower index wins.
  for (const char* y : {"f", "g", "h", "i", "j", "k", "l", "m"}) {
    ASSERT_TRUE(inst.AddFact(1, {Const("a"), Const(y)}).ok());
  }
  EXPECT_EQ(CompileMatchPlan(body, inst, partial, {}).perm,
            (std::vector<size_t>{0, 1}));
}

// A callback may start another search, which compiles into the scratch
// slot of the next nesting depth while the outer plan is still running.
// Three levels over bodies of different shapes (a two-atom join, a keyed
// probe, a point lookup feeding two probes), on a fresh thread so the
// nested searches also grow its slot stack mid-search: each level
// enumerates exactly the full-scan oracle's set.
TEST(MatchPlanTest, NestedSearchesKeepTheirOwnPlans) {
  SchemaPtr schema = MakeSchema("P/2, Q/2, R/1");
  Instance inst = MustParseInstance(
      schema,
      "P(a,b), P(b,c), P(c,a), P(a,c), Q(b,a), Q(c,b), Q(a,a), Q(c,c), "
      "R(a), R(b)");
  const Conjunction outer = {{0, {Var("x"), Var("y")}},
                             {1, {Var("y"), Var("z")}}};
  const Conjunction middle = {{1, {Var("z"), Var("w")}}};
  const Conjunction inner = {{2, {Var("w")}},
                             {0, {Var("w"), Var("v")}},
                             {1, {Var("v"), Const("a")}}};
  HomSearchOptions scan;
  scan.use_index = false;
  auto oracle = [&](const Conjunction& body, const Assignment& partial) {
    std::vector<Assignment> all = FindAllHomomorphisms(body, inst, partial,
                                                       scan);
    return std::set<Assignment>(all.begin(), all.end());
  };
  auto collect = [](std::set<Assignment>* into) {
    return [into](const Assignment& h) {
      into->insert(h);
      return true;
    };
  };

  size_t inner_matches = 0;
  std::thread fresh([&] {
    std::set<Assignment> outer_found;
    ForEachHomomorphism(outer, inst, {}, {}, [&](const Assignment& h0) {
      outer_found.insert(h0);
      Assignment keyed = {{Var("z"), h0.at(Var("z"))}};
      std::set<Assignment> middle_found;
      ForEachHomomorphism(middle, inst, keyed, {}, [&](const Assignment& h1) {
        middle_found.insert(h1);
        Assignment ground = {{Var("w"), h1.at(Var("w"))}};
        std::set<Assignment> inner_found;
        ForEachHomomorphism(inner, inst, ground, {}, collect(&inner_found));
        EXPECT_EQ(inner_found, oracle(inner, ground));
        inner_matches += inner_found.size();
        return true;
      });
      EXPECT_EQ(middle_found, oracle(middle, keyed));
      return true;
    });
    EXPECT_EQ(outer_found, oracle(outer, {}));
  });
  fresh.join();
  EXPECT_GT(inner_matches, 0u);
}

// A HeldSearch keeps its slot for a whole loop. Here one lives inside an
// outer search's callback (a search around it), and between its checks
// other searches of other shapes run (searches inside it), each compiling
// into a deeper slot. Every check must answer what HasHomomorphism
// answers, so neither kind may disturb the held plan.
TEST(MatchPlanTest, HeldSearchSurvivesSearchesInsideAndAround) {
  SchemaPtr schema = MakeSchema("P/2, Q/2, R/1");
  Instance inst = MustParseInstance(
      schema,
      "P(a,b), P(b,c), P(c,a), P(a,c), Q(b,a), Q(c,b), Q(a,a), Q(c,c), "
      "R(a), R(b)");
  const Conjunction outer = {{0, {Var("x"), Var("y")}}};
  // Stats-free: every head argument is a key of the partial.
  const Conjunction head = {{1, {Var("y"), Var("x")}}, {2, {Var("x")}}};
  const Conjunction other = {{0, {Var("u"), Var("v")}},
                             {1, {Var("v"), Var("w")}}};
  HomSearchOptions options;
  SearchTally tally;
  size_t checks = 0;
  size_t satisfied = 0;
  std::thread fresh([&] {
    ForEachHomomorphism(outer, inst, {}, {}, [&](const Assignment& h0) {
      HeldSearch held(head, options, &tally);
      for (const char* x : {"a", "b", "c"}) {
        Assignment partial = {{Var("x"), Const(x)},
                              {Var("y"), h0.at(Var("y"))}};
        const bool want = HasHomomorphism(head, inst, partial, options);
        EXPECT_EQ(held.Exists(inst, partial), want)
            << AssignmentToString(partial);
        ++checks;
        if (want) ++satisfied;
        EXPECT_FALSE(FindAllHomomorphisms(other, inst, {}, options).empty());
      }
      return true;
    });
  });
  fresh.join();
  EXPECT_EQ(checks, 12u);
  EXPECT_GT(satisfied, 0u);
  EXPECT_LT(satisfied, checks);
  EXPECT_EQ(tally.searches, checks);
}

// The counter deltas of `run`: every counter it moved, by how much.
std::map<std::string, uint64_t> CounterDelta(const std::function<void()>& run) {
  std::map<std::string, uint64_t> before = obs::SnapshotMetrics().counters;
  run();
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, value] : obs::SnapshotMetrics().counters) {
    const uint64_t base = before.count(name) ? before.at(name) : 0;
    if (value != base) delta[name] = value - base;
  }
  return delta;
}

// A head with an existential joining two atoms compiles in the greedy
// order, which reads the target's statistics. As the target grows, that
// order flips; the held search must follow it, compiling afresh for every
// check, so each check answers and counts exactly what a per-call
// HasHomomorphism does.
TEST(MatchPlanTest, GreedyHeldSearchRecompilesAndCountsLikePerCallSearch) {
  SchemaPtr schema = MakeSchema("Q/2, R/2");
  Instance inst = MustParseInstance(
      schema, "Q(a,n1), Q(a,n2), Q(a,n3), Q(a,n4), R(n5,b)");
  const Conjunction head = {{0, {Var("x"), Var("z")}},
                            {1, {Var("z"), Var("y")}}};
  const Assignment partial = {{Var("x"), Const("a")}, {Var("y"), Const("b")}};
  HomSearchOptions options;
  const std::vector<size_t> first_order =
      CompileMatchPlan(head, inst, partial, options).perm;
  EXPECT_FALSE(CompileMatchPlan(head, inst, partial, options).stats_free);

  SearchTally tally;
  HeldSearch held(head, options, &tally);
  for (int round = 0; round < 6; ++round) {
    bool per_call = false;
    std::map<std::string, uint64_t> want = CounterDelta(
        [&] { per_call = HasHomomorphism(head, inst, partial, options); });
    bool got = false;
    std::map<std::string, uint64_t> have = CounterDelta([&] {
      got = held.Exists(inst, partial);
      tally.Flush();
    });
    EXPECT_EQ(got, per_call) << "round " << round;
    EXPECT_EQ(have, want) << "round " << round;
    // Grow R on y's value: R stops being the cheaper side of the join.
    const std::string n = "m" + std::to_string(round);
    ASSERT_TRUE(inst.AddFact(1, {Const(n.c_str()), Const("b")}).ok());
    ASSERT_TRUE(inst.AddFact(1, {Const((n + "x").c_str()), Const("b")}).ok());
  }
  ASSERT_TRUE(inst.AddFact(0, {Const("a"), Const("m5")}).ok());
  EXPECT_TRUE(held.Exists(inst, partial));
  EXPECT_NE(CompileMatchPlan(head, inst, partial, options).perm, first_order);
}

// A search's counters are a function of the search alone: two identical
// Figure 1 round trips in one metrics window add identical deltas.
TEST(MatchPlanTest, IdenticalRunsReportIdenticalCounters) {
  SchemaMapping m = catalog::Decomposition();
  Instance i = catalog::Fig1Instance(m);
  ReverseMapping rev = catalog::DecompositionQuasiInverseJoin(m);
  auto run_delta = [&] {
    std::map<std::string, uint64_t> before = obs::SnapshotMetrics().counters;
    Result<RoundTrip> trip = CheckRoundTrip(m, rev, i);
    EXPECT_TRUE(trip.ok() && trip->faithful);
    std::map<std::string, uint64_t> delta;
    for (const auto& [name, value] : obs::SnapshotMetrics().counters) {
      const uint64_t base = before.count(name) ? before.at(name) : 0;
      if (value != base) delta[name] = value - base;
    }
    return delta;
  };
  obs::ResetMetrics();
  std::map<std::string, uint64_t> first = run_delta();
  EXPECT_GT(first["hom.searches"], 0u);
  EXPECT_EQ(run_delta(), first);
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
