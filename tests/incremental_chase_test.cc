#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chase.h"
#include "chase/chase_checkpoint.h"
#include "dependency/parser.h"
#include "dependency/schema_mapping.h"
#include "obs/journal.h"
#include "relational/instance.h"
#include "relational/instance_enum.h"
#include "workload/random_mappings.h"
#include "random_testing.h"

// Randomized differential test of the incremental delta-chase against the
// full-rechase oracle. Each case records a checkpoint chase of a base
// instance, then grows the instance through several random fact-append
// rounds; after every round the checkpoint resume must be *byte-identical*
// to chasing the grown instance from scratch — same facts, same null
// labels, same fingerprint. The journal case
// additionally requires the same provenance event sequence. The sweep
// covers the paper's mapping classes (StandardShapes in random_testing.h).

namespace qimap {
namespace {

// One seeded case: a random mapping, a random growth schedule over a
// random fact pool, and a checkpoint threaded through every round.
void RunCase(const CaseShape& shape, uint64_t seed) {
  Rng rng(seed);
  SchemaMapping m = RandomMapping(&rng, shape.config);
  std::vector<Value> domain = MakeDomain({"a", "b", "c", "d"});
  // The pool the growth schedule draws from; canonical order, so the
  // random split below is the only source of schedule randomness.
  Instance pool = RandomGroundInstance(m.source, domain, 12, &rng);
  std::vector<Fact> facts = pool.Facts();

  Instance grown(m.source);
  size_t base = 2 + static_cast<size_t>(rng.Next() % 4);
  size_t next = 0;
  for (; next < facts.size() && next < base; ++next) {
    ASSERT_TRUE(
        grown.AddFact(facts[next].relation, facts[next].tuple).ok());
  }

  ChaseCheckpoint checkpoint;
  ChaseOptions incremental;
  incremental.incremental = &checkpoint;
  ChaseOptions fresh;

  // Record the base chase, then resume through 3 append rounds.
  ChaseStats stats;
  Result<Instance> recorded = Chase(grown, m, incremental, &stats);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  EXPECT_FALSE(stats.resumed);
  for (int round = 0; round < 3; ++round) {
    size_t append = 1 + static_cast<size_t>(rng.Next() % 3);
    for (size_t k = 0; k < append && next < facts.size(); ++k, ++next) {
      ASSERT_TRUE(
          grown.AddFact(facts[next].relation, facts[next].tuple).ok());
    }
    Result<Instance> resumed = Chase(grown, m, incremental, &stats);
    Result<Instance> oracle = Chase(grown, m, fresh);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    SCOPED_TRACE(std::string(shape.name) + " seed=" +
                 std::to_string(seed) + " round=" +
                 std::to_string(round) +
                 "\n  source:  " + grown.ToString() +
                 "\n  resumed: " + resumed->ToString() +
                 "\n  oracle:  " + oracle->ToString());
    EXPECT_TRUE(stats.resumed);
    EXPECT_EQ(resumed->ToString(), oracle->ToString());
    EXPECT_EQ(resumed->Fingerprint(), oracle->Fingerprint());
  }
}

TEST(IncrementalChaseTest, ResumeMatchesFullRechaseAcross108SeededCases) {
  // 4 shapes x 27 seeds = 108 cases, 3 append rounds each — 324
  // resume-vs-oracle comparisons.
  size_t cases = 0;
  for (const CaseShape& shape : StandardShapes()) {
    for (uint64_t seed = 1; seed <= 27; ++seed) {
      RunCase(shape, seed * 7919 + 257);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 108u);
}

SchemaMapping TwoHopMapping() {
  return MustParseMapping("P/2, R/2", "Q/3",
                          "P(x,y) & R(y,z) -> exists w: Q(x,z,w)");
}

// A zero-delta resume (the appended facts were duplicates the instance
// absorbed) must replay to the identical result without finding any new
// triggers.
TEST(IncrementalChaseTest, ZeroDeltaResumeIsIdentity) {
  SchemaMapping m = TwoHopMapping();
  Instance source = MustParseInstance(m.source, "P(a,b), R(b,c)");
  ChaseCheckpoint checkpoint;
  ChaseOptions options;
  options.incremental = &checkpoint;
  Result<Instance> first = Chase(source, m, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(source.AddFact("P", {Value::MakeConstant("a"),
                                   Value::MakeConstant("b")})
                  .ok());  // duplicate: absorbed
  ChaseStats stats;
  Result<Instance> again = Chase(source, m, options, &stats);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(stats.resumed);
  EXPECT_EQ(stats.delta_facts, 0u);
  EXPECT_EQ(stats.delta_triggers, 0u);
  EXPECT_EQ(first->ToString(), again->ToString());
}

// The resume savings must be visible in the stats: replayed triggers are
// resolved from their recorded outcome (checks_skipped), while the
// cumulative counters still report full-run-equivalent totals.
TEST(IncrementalChaseTest, ResumeStatsReportSavings) {
  SchemaMapping m = TwoHopMapping();
  Instance source = MustParseInstance(m.source, "P(a,b), R(b,c), R(b,d)");
  ChaseCheckpoint checkpoint;
  ChaseOptions options;
  options.incremental = &checkpoint;
  ASSERT_TRUE(Chase(source, m, options).ok());
  ASSERT_TRUE(source.AddFact("P", {Value::MakeConstant("e"),
                                   Value::MakeConstant("b")})
                  .ok());
  ChaseStats stats;
  Result<Instance> resumed = Chase(source, m, options, &stats);
  ASSERT_TRUE(resumed.ok());
  ChaseStats oracle_stats;
  Result<Instance> oracle = Chase(source, m, {}, &oracle_stats);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(stats.resumed);
  EXPECT_EQ(stats.delta_facts, 1u);
  EXPECT_EQ(stats.replayed_triggers, 2u);  // (a,b,c) and (a,b,d)
  EXPECT_EQ(stats.delta_triggers, 2u);     // (e,b,c) and (e,b,d)
  EXPECT_GT(stats.checks_skipped, 0u);
  // Full-run-equivalent totals: what a from-scratch chase reports.
  EXPECT_EQ(stats.steps, oracle_stats.steps);
  EXPECT_EQ(stats.triggers_fired, oracle_stats.triggers_fired);
  EXPECT_EQ(stats.nulls_minted, oracle_stats.nulls_minted);
  EXPECT_EQ(stats.facts_added, oracle_stats.facts_added);
  EXPECT_EQ(resumed->ToString(), oracle->ToString());
}

// A checkpoint cut under different dependencies (or any other mismatch)
// must not resume: the run self-heals by re-recording.
TEST(IncrementalChaseTest, MismatchedCheckpointSelfHeals) {
  SchemaMapping m = TwoHopMapping();
  Instance source = MustParseInstance(m.source, "P(a,b), R(b,c)");
  ChaseCheckpoint checkpoint;
  ChaseOptions options;
  options.incremental = &checkpoint;
  ASSERT_TRUE(Chase(source, m, options).ok());
  checkpoint.dependency_fingerprint ^= 1;  // simulate a mapping change
  ChaseStats stats;
  Result<Instance> rechased = Chase(source, m, options, &stats);
  ASSERT_TRUE(rechased.ok());
  EXPECT_FALSE(stats.resumed);
  // The re-record repaired the checkpoint; the next run resumes.
  Result<Instance> resumed = Chase(source, m, options, &stats);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(stats.resumed);
  EXPECT_EQ(rechased->ToString(), resumed->ToString());
}

// Byte-identical includes the provenance journal: a journaled resume must
// record the same event sequence (kinds, facts, dependencies, bindings)
// as a journaled full re-chase. Ids and run numbers are process-global
// and differ; everything the events *say* must not.
TEST(IncrementalChaseTest, JournaledResumeMatchesFullRechaseEvents) {
  SchemaMapping m = TwoHopMapping();
  Instance source = MustParseInstance(m.source, "P(a,b), R(b,c), R(b,d)");
  ChaseCheckpoint checkpoint;
  ChaseOptions options;
  options.incremental = &checkpoint;
  ASSERT_TRUE(Chase(source, m, options).ok());
  ASSERT_TRUE(source.AddFact("P", {Value::MakeConstant("e"),
                                   Value::MakeConstant("b")})
                  .ok());

  auto capture = [&](const ChaseOptions& run_options) {
    obs::Journal::Clear();
    obs::Journal::Enable();
    Result<Instance> result = Chase(source, m, run_options);
    EXPECT_TRUE(result.ok());
    std::vector<obs::JournalEvent> events = obs::Journal::Events();
    obs::Journal::Disable();
    obs::Journal::Clear();
    return events;
  };
  std::vector<obs::JournalEvent> resumed = capture(options);
  std::vector<obs::JournalEvent> oracle = capture(ChaseOptions{});

  ASSERT_EQ(resumed.size(), oracle.size());
  for (size_t i = 0; i < resumed.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(resumed[i].kind, oracle[i].kind);
    EXPECT_EQ(resumed[i].fact, oracle[i].fact);
    EXPECT_EQ(resumed[i].dependency, oracle[i].dependency);
    EXPECT_EQ(resumed[i].dep_index, oracle[i].dep_index);
    EXPECT_EQ(resumed[i].bindings, oracle[i].bindings);
    EXPECT_EQ(resumed[i].parents.size(), oracle[i].parents.size());
    EXPECT_EQ(resumed[i].nulls.size(), oracle[i].nulls.size());
  }
}

// Appends that *change recorded outcomes* — a delta-derived fact
// witnessing a previously fired trigger's rhs — must divert the replay
// into real satisfaction searches and still match the oracle. The delta
// fact sorts before the recorded triggers, so this also pins the
// slow-path merge order.
TEST(IncrementalChaseTest, OutcomeFlippingAppendStaysIdentical) {
  SchemaMapping m = MustParseMapping("P/1, W/2", "Q/2",
                                     "P(x) -> exists y: Q(x,y); "
                                     "W(x,y) -> Q(x,y)");
  Instance source = MustParseInstance(m.source, "P(b)");
  ChaseCheckpoint checkpoint;
  ChaseOptions options;
  options.incremental = &checkpoint;
  Result<Instance> first = Chase(source, m, options);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->ToString(), "Q(b,_N1)");
  // W(a,c) fires Q(a,c); the replayed P(b) trigger still fires (its rhs
  // is unwitnessed), but the replay must re-verify because the delta
  // touched Q. Then P(a) in a later round is witnessed by Q(a,c) — a
  // genuinely changed outcome relative to a skew of the recording.
  ASSERT_TRUE(source.AddFact("W", {Value::MakeConstant("a"),
                                   Value::MakeConstant("c")})
                  .ok());
  ChaseStats stats;
  Result<Instance> resumed = Chase(source, m, options, &stats);
  Result<Instance> oracle = Chase(source, m, {});
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(stats.resumed);
  EXPECT_EQ(resumed->ToString(), oracle->ToString());
  ASSERT_TRUE(source.AddFact("P", {Value::MakeConstant("a")}).ok());
  resumed = Chase(source, m, options, &stats);
  oracle = Chase(source, m, {});
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(resumed->ToString(), oracle->ToString());
}

}  // namespace
}  // namespace qimap
