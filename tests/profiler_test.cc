#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "chase/chase.h"
#include "relational/cost_model.h"
#include "dependency/parser.h"
#include "obs/profiler.h"
#include "relational/schema.h"

// Tests for the per-dependency chase profiler (obs/profiler.h) and the
// CostModel handoff (relational/cost_model.h): determinism across runs,
// zero-delta when disabled, and the per-atom attribution invariant (atom
// rows sum exactly to the dependency totals).

namespace qimap {
namespace {

// Restores a clean global profiler between tests: the registry and
// shards are process-wide, so every test that enables profiling funnels
// through this fixture.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Profiler::Disable();
    obs::Profiler::Reset();
  }
  void TearDown() override {
    obs::Profiler::Disable();
    obs::Profiler::Reset();
  }
};

// A workload with real join work. The store indexes every column, so a
// two-variable atom whose arguments are all determined collapses to a
// point lookup and never backtracks; to keep candidate rejection in the
// profile, the join's second atom is ternary with two determined columns
// and a fresh one — the matcher probes the smaller of the two posting
// lists, and the candidates it visits can still mismatch the *other*
// determined column (backtracks). An existential dependency (nulls
// minted) competes for triggers.
SchemaMapping JoinMapping() {
  return MustParseMapping(
      "E/2, S/3", "P/2, T/3",
      "E(x,y) & S(x,y,w) -> P(x,w); E(x,y) -> exists w: T(x,y,w)");
}

Instance JoinSource(const SchemaMapping& m) {
  // For E(a,b): the col0=a list has 3 rows, the col1=b list has 2, so the
  // matcher walks col1=b and rejects S(c,b,w2) on column 0 — a backtrack.
  return MustParseInstance(
      m.source,
      "E(a,b), E(b,c), E(c,a), "
      "S(a,b,u1), S(a,c,u2), S(a,d,u3), S(b,c,v1), S(b,a,v2), "
      "S(c,a,w1), S(c,b,w2), S(c,c,w3)");
}

// Two identical back-to-back runs render byte-identical canonical
// profiles — the determinism `report diff` relies on.
TEST_F(ProfilerTest, CanonicalProfileByteIdenticalAcrossRuns) {
  SchemaMapping m = JoinMapping();
  Instance src = JoinSource(m);
  std::vector<std::string> profiles;
  std::vector<std::string> results;
  for (int run = 0; run < 2; ++run) {
    obs::Profiler::Reset();
    obs::Profiler::Enable();
    Instance out = MustChase(src, m);
    profiles.push_back(obs::Profiler::Snapshot().ToJson(/*canonical=*/true));
    results.push_back(out.ToString());
    obs::Profiler::Disable();
  }
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles[0], profiles[1]) << "back-to-back runs diverged";
  EXPECT_EQ(results[0], results[1]);
  // The canonical rendering must not leak timing fields.
  EXPECT_EQ(profiles[0].find("time_us"), std::string::npos);
  EXPECT_EQ(profiles[0].find("traceEvents"), std::string::npos);
}

// The chase runs on its caller's thread, and clients may call it from
// several threads at once: each thread writes its own profiler and
// metrics shards and its own scratch plan slots, so concurrent chases
// return the serial result and the merged profile is exactly the serial
// profile once per chase. The tsan preset runs this under
// ThreadSanitizer.
TEST_F(ProfilerTest, ConcurrentClientChasesMergeExactly) {
  SchemaMapping m = JoinMapping();
  Instance src = JoinSource(m);
  obs::Profiler::Enable();
  const std::string expected = MustChase(src, m).ToString();
  const obs::ProfileSnapshot one = obs::Profiler::Snapshot();
  ASSERT_FALSE(one.deps.empty());

  constexpr int kThreads = 4;
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, &src, &m, t] {
      results[t] = MustChase(src, m).ToString();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& result : results) EXPECT_EQ(result, expected);

  // The serial chase registered every dependency, so the concurrent ones
  // only look them up: same ids, and every count is (1 + kThreads) times
  // the serial run's.
  const obs::ProfileSnapshot all = obs::Profiler::Snapshot();
  ASSERT_EQ(all.deps.size(), one.deps.size());
  for (size_t d = 0; d < one.deps.size(); ++d) {
    const obs::ProfileDepCounters& a = all.deps[d].totals;
    const obs::ProfileDepCounters& o = one.deps[d].totals;
    SCOPED_TRACE(one.deps[d].text);
    EXPECT_EQ(all.deps[d].text, one.deps[d].text);
    EXPECT_EQ(a.searches, (1 + kThreads) * o.searches);
    EXPECT_EQ(a.matches, (1 + kThreads) * o.matches);
    EXPECT_EQ(a.backtracks, (1 + kThreads) * o.backtracks);
    EXPECT_EQ(a.triggers_found, (1 + kThreads) * o.triggers_found);
    EXPECT_EQ(a.fired, (1 + kThreads) * o.fired);
    EXPECT_EQ(a.skipped, (1 + kThreads) * o.skipped);
    EXPECT_EQ(a.facts_added, (1 + kThreads) * o.facts_added);
  }
}

TEST_F(ProfilerTest, DisabledProfilerRecordsNothingAndChangesNothing) {
  SchemaMapping m = JoinMapping();
  Instance src = JoinSource(m);
  ASSERT_FALSE(obs::Profiler::Enabled());
  Instance off = MustChase(src, m);
  EXPECT_TRUE(obs::Profiler::Snapshot().deps.empty());

  obs::Profiler::Enable();
  ASSERT_TRUE(obs::Profiler::Enabled());
  Instance on = MustChase(src, m);
  EXPECT_FALSE(obs::Profiler::Snapshot().deps.empty());
  // Profiling is observation only: the chase output is unchanged.
  EXPECT_EQ(off.ToString(), on.ToString());
}

TEST_F(ProfilerTest, PerAtomRowsSumExactlyToDependencyTotals) {
  SchemaMapping m = JoinMapping();
  Instance src = JoinSource(m);
  obs::Profiler::Enable();
  MustChase(src, m);
  obs::ProfileSnapshot snap = obs::Profiler::Snapshot();
  ASSERT_FALSE(snap.deps.empty());
  bool saw_join_work = false;
  for (const obs::ProfileDepSnapshot& dep : snap.deps) {
    EXPECT_EQ(dep.totals.atoms.size(),
              std::min<size_t>(dep.body_atoms, obs::kMaxProfileAtoms))
        << dep.text;
    uint64_t unify_fails = 0, probe_rows = 0, scan_rows = 0;
    for (const obs::ProfileAtomCounters& atom : dep.totals.atoms) {
      unify_fails += atom.unify_fails;
      probe_rows += atom.probe_rows;
      scan_rows += atom.scan_rows;
    }
    EXPECT_EQ(unify_fails, dep.totals.backtracks) << dep.text;
    EXPECT_EQ(probe_rows, dep.totals.probe_rows) << dep.text;
    EXPECT_EQ(scan_rows, dep.totals.scan_rows) << dep.text;
    if (dep.body_atoms == 2 && dep.totals.backtracks > 0) {
      saw_join_work = true;
    }
  }
  EXPECT_TRUE(saw_join_work)
      << "the two-atom join dependency should record backtracks";
}

// Both join orders (the compiled plan's greedy order and the full scan's)
// must pick a zero-extent atom first regardless of how many unbound
// arguments it has: the whole search then dies on one empty scan instead
// of enumerating the other atoms' rows first. Pinned through the per-atom
// profiler attribution (the join reorder is mapped back to as-written
// positions via the order's perm): with the zero-extent atom ordered
// first, *no* atom records any probe or row work. The old greedy ordered
// B(x) (one unbound arg) ahead of Empty(x,y,z) (three), scanning B's rows
// and probing Empty once per row.
TEST_F(ProfilerTest, ZeroExtentAtomIsOrderedFirstAndPrunesInstantly) {
  SchemaMapping m = MustParseMapping("B/1, Empty/3", "P/1",
                                     "B(x) & Empty(x,y,z) -> P(x)");
  for (bool use_index : {false, true}) {
    obs::Profiler::Reset();
    obs::Profiler::Enable();
    Instance src = MustParseInstance(m.source, "B(a), B(b), B(c)");
    ChaseOptions options;
    options.use_index = use_index;
    MustChase(src, m, options);
    obs::ProfileSnapshot snap = obs::Profiler::Snapshot();
    ASSERT_EQ(snap.deps.size(), 1u);
    const obs::ProfileDepSnapshot& dep = snap.deps[0];
    EXPECT_GE(dep.totals.searches, 1u);
    EXPECT_EQ(dep.totals.matches, 0u);
    ASSERT_EQ(dep.totals.atoms.size(), 2u);
    for (size_t i = 0; i < dep.totals.atoms.size(); ++i) {
      const obs::ProfileAtomCounters& atom = dep.totals.atoms[i];
      EXPECT_EQ(atom.probes, 0u) << "use_index=" << use_index << " atom " << i;
      EXPECT_EQ(atom.probe_rows, 0u)
          << "use_index=" << use_index << " atom " << i;
      EXPECT_EQ(atom.scan_rows, 0u)
          << "use_index=" << use_index << " atom " << i;
      EXPECT_EQ(atom.unify_fails, 0u)
          << "use_index=" << use_index << " atom " << i;
    }
    obs::Profiler::Disable();
  }
}

TEST_F(ProfilerTest, SnapshotIdsAreDenseAndRegistrationIsIdempotent) {
  obs::Profiler::Enable();
  uint32_t a = obs::Profiler::RegisterDep("test", "A(x) -> B(x)", 1);
  uint32_t b = obs::Profiler::RegisterDep("test", "B(x) -> C(x)", 1);
  uint32_t a2 = obs::Profiler::RegisterDep("test", "A(x) -> B(x)", 1);
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  obs::ProfileSnapshot snap = obs::Profiler::Snapshot();
  ASSERT_EQ(snap.deps.size(), 2u);
  for (size_t i = 0; i < snap.deps.size(); ++i) {
    EXPECT_EQ(snap.deps[i].id, i);
  }
  EXPECT_EQ(snap.deps[a].text, "A(x) -> B(x)");
}

TEST(CostModelTest, ExactRowAndSelectivityStatistics) {
  SchemaPtr schema = MakeSchema("P/2, Q/1");
  Instance inst = MustParseInstance(
      schema, "P(a,b), P(a,c), P(b,c), Q(a)");
  CostModel model = CostModel::FromInstance(inst);
  EXPECT_EQ(model.total_facts, 4u);
  ASSERT_EQ(model.relations.size(), 2u);

  const RelationStats& p = model.relations[0];
  EXPECT_EQ(p.name, "P");
  EXPECT_EQ(p.arity, 2u);
  EXPECT_EQ(p.rows, 3u);
  ASSERT_EQ(p.columns.size(), 2u);
  EXPECT_EQ(p.columns[0].distinct, 2u);  // a, b
  EXPECT_EQ(p.columns[1].distinct, 2u);  // b, c
  EXPECT_NEAR(p.columns[0].selectivity, 2.0 / 3.0, 1e-9);

  const RelationStats& q = model.relations[1];
  EXPECT_EQ(q.rows, 1u);
  EXPECT_NEAR(q.columns[0].selectivity, 1.0, 1e-9);

  std::string json = model.ToJson();
  EXPECT_NE(json.find("\"total_facts\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"P\""), std::string::npos);
  EXPECT_NE(json.find("\"selectivity\""), std::string::npos);
  EXPECT_NE(model.ToText().find("cost model: 4 facts"), std::string::npos);
}

TEST(CostModelTest, EmptyRelationsGetZeroSelectivity) {
  SchemaPtr schema = MakeSchema("P/2");
  Instance inst(schema);
  CostModel model = CostModel::FromInstance(inst);
  EXPECT_EQ(model.total_facts, 0u);
  ASSERT_EQ(model.relations.size(), 1u);
  EXPECT_EQ(model.relations[0].rows, 0u);
  ASSERT_EQ(model.relations[0].columns.size(), 2u);
  EXPECT_EQ(model.relations[0].columns[0].distinct, 0u);
  EXPECT_EQ(model.relations[0].columns[0].selectivity, 0.0);
}

}  // namespace
}  // namespace qimap
