#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "chase/chase.h"
#include "chase/shard_plan.h"
#include "dependency/parser.h"
#include "obs/journal.h"
#include "obs/run_record.h"
#include "obs/metrics.h"
#include "relational/instance_enum.h"
#include "workload/random_mappings.h"
#include "workload/scenario_gen.h"
#include "random_testing.h"

// Determinism stress test for the parallel chase: the two-phase standard
// chase promises output that is a pure function of the input — identical
// facts, null labels, and provenance-journal records at every thread
// count. These tests run the same workloads at 1, 2, 4 and 8 threads and
// diff everything.

namespace qimap {
namespace {

TEST(ParallelChaseTest, StandardChaseIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 97 + 13);
    RandomMappingConfig config;
    config.max_lhs_atoms = 2;
    config.max_existential_vars = 2;
    config.num_tgds = 5;
    SchemaMapping m = RandomMapping(&rng, config);
    std::vector<Value> domain = MakeDomain({"a", "b", "c", "d"});
    Instance source = RandomGroundInstance(m.source, domain, 6, &rng);
    std::vector<std::string> outputs;
    for (size_t threads : {1u, 2u, 8u}) {
      ChaseOptions options;
      options.num_threads = threads;
      outputs.push_back(MustChase(source, m, options).ToString());
    }
    EXPECT_EQ(outputs[0], outputs[1]) << "seed " << seed;
    EXPECT_EQ(outputs[0], outputs[2]) << "seed " << seed;
  }
}

TEST(ParallelChaseTest, ResolveThreadCountReadsEnvironment) {
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  unsetenv("QIMAP_CHASE_THREADS");
  EXPECT_EQ(ResolveThreadCount(0), 1u);
  setenv("QIMAP_CHASE_THREADS", "4", 1);
  EXPECT_EQ(ResolveThreadCount(0), 4u);
  setenv("QIMAP_CHASE_THREADS", "garbage", 1);
  EXPECT_EQ(ResolveThreadCount(0), 1u);
  unsetenv("QIMAP_CHASE_THREADS");
}

// Sharded-firing determinism soak: mixed scenario families chased at
// 1/2/4/8 threads. The chase's promise is total byte-identity — the
// target rendering (facts and null labels), the incremental fingerprint,
// the provenance journal, and the canonical run record (which carries
// every non-chase.parallel.* counter, so hom.* and chase.index.* totals
// are diffed too) must not change with the thread count — while the
// chase.parallel.shard_* metrics prove sharded firing actually engaged.
struct ShardedRun {
  std::string facts;
  uint64_t fingerprint = 0;
  uint32_t max_null_label = 0;
  std::vector<std::string> journal;
  std::string record_canonical;
  uint64_t shard_batches = 0;
  uint64_t shards = 0;
};

ShardedRun RunShardedOnce(const Scenario& scenario, size_t threads) {
  obs::ResetMetrics();
  obs::Journal::Clear();
  obs::Journal::Enable();
  ChaseOptions options;
  options.num_threads = threads;
  Instance chased = MustChase(scenario.source, scenario.mapping, options);
  ShardedRun run;
  run.facts = chased.ToString();
  run.fingerprint = chased.Fingerprint();
  run.max_null_label = chased.MaxNullLabel();
  run.journal = NormalizedJournalLines();
  obs::RunRecord entry = obs::CollectRunRecord(
      "test/sharded_soak", /*budget=*/nullptr, /*exit_code=*/0,
      /*elapsed_seconds=*/0.0);
  run.record_canonical = entry.ToJson(/*canonical=*/true);
  obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
  auto batches = snapshot.counters.find("chase.parallel.shard_batches");
  if (batches != snapshot.counters.end()) run.shard_batches = batches->second;
  auto shards = snapshot.counters.find("chase.parallel.shards");
  if (shards != snapshot.counters.end()) run.shards = shards->second;
  obs::Journal::Disable();
  obs::Journal::Clear();
  return run;
}

TEST(ParallelShardedFiringTest, ByteIdenticalAt1And2And4And8Threads) {
  size_t engaged_cases = 0;
  size_t total_cases = 0;
  for (ScenarioFamily family :
       {ScenarioFamily::kGav, ScenarioFamily::kFull, ScenarioFamily::kMixed}) {
    ScenarioConfig config;
    config.family = family;
    config.num_source_relations = 5;
    config.num_target_relations = 8;
    config.num_tgds = 8;
    config.body_atoms = 2;
    config.fan_out = 1;  // one rhs atom per tgd -> many independent shards
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Scenario scenario =
          GenerateScenario(config, seed * 4099 + 11, /*num_facts=*/24);
      ++total_cases;
      std::vector<ShardedRun> runs;
      for (size_t threads : {1u, 2u, 4u, 8u}) {
        runs.push_back(RunShardedOnce(scenario, threads));
      }
      SCOPED_TRACE(std::string(ScenarioFamilyName(family)) + " seed=" +
                   std::to_string(seed));
      // A single thread always fires inline, exactly as before the pool
      // existed.
      EXPECT_EQ(runs[0].shard_batches, 0u);
      for (size_t i = 1; i < runs.size(); ++i) {
        SCOPED_TRACE("1 thread vs " + std::to_string(1u << i) + " threads");
        EXPECT_EQ(runs[0].facts, runs[i].facts);
        EXPECT_EQ(runs[0].fingerprint, runs[i].fingerprint);
        EXPECT_EQ(runs[0].max_null_label, runs[i].max_null_label);
        EXPECT_EQ(runs[0].journal, runs[i].journal);
        EXPECT_EQ(runs[0].record_canonical, runs[i].record_canonical);
      }
      if (runs[3].shard_batches > 0) {
        ++engaged_cases;
        EXPECT_GE(runs[3].shards, 2u);
      }
    }
  }
  // Sharding must really engage on most of these workloads (eight
  // single-head tgds over eight target relations rarely collapse to one
  // shard); a soak that never exercises the merge proves nothing.
  EXPECT_EQ(total_cases, 18u);
  EXPECT_GE(engaged_cases, 12u);
}

// When dependency bodies can read target relations (aliased schemas, as
// in the implication oracle's chase of canonical instances), a body read
// of a relation another dependency writes must union the reader into the
// writer's shard — otherwise the reader's shard-private searches could
// observe a stale copy of a relation another thread is growing. For
// genuine s-t mappings the flag stays false and the reads don't union:
// lhs ids name source relations that merely share the numeric id space.
TEST(ParallelShardedFiringTest, BodyReadersJoinWriterShards) {
  SchemaMapping m = MustParseMapping(
      "E/2, F/2, T/2", "E/2, F/2, T/2",
      "F(x,y) -> E(x,y); E(x,y) & E(y,z) -> T(x,z)");
  ASSERT_EQ(m.tgds.size(), 2u);

  // rhs sets {E} and {T} are disjoint: two shards for an s-t mapping.
  ShardPlan st = PlanFiringShards(m.tgds, m.target->size(),
                                  /*bodies_read_targets=*/false);
  EXPECT_EQ(st.num_shards, 2u);
  EXPECT_NE(st.dep_shard[0], st.dep_shard[1]);

  // Aliased schemas: dep 1's body reads E, which dep 0 writes — one shard.
  ShardPlan aliased = PlanFiringShards(m.tgds, m.target->size(),
                                       /*bodies_read_targets=*/true);
  EXPECT_EQ(aliased.num_shards, 1u);
  EXPECT_EQ(aliased.dep_shard[0], aliased.dep_shard[1]);

  // A body read of a relation nothing writes unions nothing.
  SchemaMapping free_read = MustParseMapping(
      "E/2, F/2, T/2", "E/2, F/2, T/2",
      "F(x,y) -> E(x,y); F(x,y) & T(y,z) -> T(x,z)");
  ShardPlan plan = PlanFiringShards(free_read.tgds, free_read.target->size(),
                                    /*bodies_read_targets=*/true);
  EXPECT_EQ(plan.num_shards, 2u);
}

// The ISSUE's regression scenario: a transitivity-style tgd set over
// aliased source/target schemas, chased at 1 vs 8 threads. The second
// shard group (U -> V) keeps sharding engaged even though the union
// collapses the E-group into one shard.
TEST(ParallelShardedFiringTest, TransitivityTgdsByteIdenticalAt1And8Threads) {
  SchemaMapping m = MustParseMapping(
      "E/2, F/2, U/2, V/2", "E/2, F/2, U/2, V/2",
      "F(x,y) -> E(x,y); E(x,y) & E(y,z) -> E(x,z);"
      "F(x,y) -> U(y,x); U(x,y) & U(y,z) -> V(x,z)");
  struct Run {
    std::string facts;
    uint64_t fingerprint = 0;
    uint32_t max_null_label = 0;
    std::vector<std::string> journal;
    std::string record_canonical;
    uint64_t shards = 0;
  };
  std::vector<Run> runs;
  for (size_t threads : {1u, 8u}) {
    obs::ResetMetrics();
    obs::Journal::Clear();
    obs::Journal::Enable();
    Instance source = MustParseInstance(
        m.source, "F(a,b), F(b,c), F(c,d), E(p,q), E(q,r), U(m,n), U(n,o)");
    ChaseOptions options;
    options.num_threads = threads;
    Result<Instance> chased = Chase(source, m, options);
    ASSERT_TRUE(chased.ok()) << chased.status().ToString();
    Run run;
    run.facts = chased->ToString();
    run.fingerprint = chased->Fingerprint();
    run.max_null_label = chased->MaxNullLabel();
    run.journal = NormalizedJournalLines();
    obs::RunRecord entry = obs::CollectRunRecord(
        "test/transitivity", /*budget=*/nullptr, /*exit_code=*/0,
        /*elapsed_seconds=*/0.0);
    run.record_canonical = entry.ToJson(/*canonical=*/true);
    obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
    auto shards = snapshot.counters.find("chase.parallel.shards");
    if (shards != snapshot.counters.end()) run.shards = shards->second;
    obs::Journal::Disable();
    obs::Journal::Clear();
    runs.push_back(std::move(run));
  }
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].facts, runs[1].facts);
  EXPECT_EQ(runs[0].fingerprint, runs[1].fingerprint);
  EXPECT_EQ(runs[0].max_null_label, runs[1].max_null_label);
  EXPECT_EQ(runs[0].journal, runs[1].journal);
  EXPECT_EQ(runs[0].record_canonical, runs[1].record_canonical);
  // The 8-thread run really sharded (two groups: {E,F-deps}, {U,V-deps}).
  EXPECT_EQ(runs[1].shards, 2u);
}

TEST(ParallelChaseTest, ThreadPoolRunsEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> counts(257);
    for (auto& c : counts) c = 0;
    pool.ParallelFor(counts.size(),
                     [&](size_t i) { counts[i].fetch_add(1); });
    for (size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "index " << i << " at " << threads
                                     << " threads";
    }
  }
}

}  // namespace
}  // namespace qimap
