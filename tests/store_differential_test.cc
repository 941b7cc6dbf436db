#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chase/chase.h"
#include "obs/journal.h"
#include "relational/instance.h"
#include "workload/scenario_gen.h"
#include "random_testing.h"

// Store-differential property layer for the columnar instance and the
// compiled match planner: every scenario family x body topology the
// generator emits is chased through a two-way oracle —
//
//   1. compiled plan   (`use_index = true`, the hot path), and
//   2. full scan       (`use_index = false`, the permanent naive oracle).
//
// The two paths share everything above the matcher's candidate
// enumeration, so any divergence pins the bug to the indexed matcher: the
// plan compiler (step ordering, register propagation, static mode
// selection) or the columnar store it reads (posting lists, the
// full-tuple dedup slot table, the statistics behind the join order). The
// diff is total: facts (canonical rendering), null labels, the
// incremental fingerprint, and the provenance journal must all be
// byte-identical.

namespace qimap {
namespace {

struct ChaseOutput {
  std::string facts;
  uint32_t max_null_label = 0;
  uint64_t fingerprint = 0;
  std::vector<std::string> journal;
};

ChaseOutput RunOnce(const Scenario& scenario, bool use_index) {
  obs::Journal::Clear();
  obs::Journal::Enable();
  ChaseOptions options;
  options.use_index = use_index;
  Instance chased = MustChase(scenario.source, scenario.mapping, options);
  ChaseOutput out;
  out.facts = chased.ToString();
  out.max_null_label = chased.MaxNullLabel();
  out.fingerprint = chased.Fingerprint();
  out.journal = NormalizedJournalLines();
  obs::Journal::Disable();
  obs::Journal::Clear();
  return out;
}

void ExpectSameOutput(const ChaseOutput& got, const ChaseOutput& want,
                      const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.facts, want.facts);
  EXPECT_EQ(got.max_null_label, want.max_null_label);
  EXPECT_EQ(got.fingerprint, want.fingerprint);
  EXPECT_EQ(got.journal, want.journal);
}

class StoreDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Journal::Disable();
    obs::Journal::Clear();
  }
  void TearDown() override {
    obs::Journal::Disable();
    obs::Journal::Clear();
  }
};

void RunCase(const ScenarioConfig& config, uint64_t seed) {
  Scenario scenario = GenerateScenario(config, seed, /*num_facts=*/14);
  ChaseOutput plan = RunOnce(scenario, /*use_index=*/true);
  ChaseOutput naive = RunOnce(scenario, /*use_index=*/false);
  SCOPED_TRACE(std::string(ScenarioFamilyName(config.family)) + "/" +
               BodyTopologyName(config.topology) + " seed=" +
               std::to_string(seed) +
               "\n  source:  " + scenario.source.ToString() +
               "\n  plan:    " + plan.facts +
               "\n  naive:   " + naive.facts);
  ExpectSameOutput(plan, naive, "plan vs naive");
  EXPECT_FALSE(plan.journal.empty())
      << "journal must capture the run (did Enable() fail?)";
}

// 4 families x 3 topologies x 18 seeds = 216 cases.
TEST_F(StoreDifferentialTest, IndexedMatchesFullScanAcross216Scenarios) {
  size_t cases = 0;
  for (ScenarioFamily family :
       {ScenarioFamily::kLav, ScenarioFamily::kGav, ScenarioFamily::kFull,
        ScenarioFamily::kMixed}) {
    for (BodyTopology topology :
         {BodyTopology::kChain, BodyTopology::kStar, BodyTopology::kCycle}) {
      ScenarioConfig config;
      config.family = family;
      config.topology = topology;
      for (uint64_t seed = 1; seed <= 18; ++seed) {
        RunCase(config, seed * 6151 + 29);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 216u);
}

// Wider shapes stress the posting lists harder: more relations, higher
// arity (more posting lists per relation), denser variable sharing (more
// bound columns per probe).
TEST_F(StoreDifferentialTest, WideShapesAgreeToo) {
  ScenarioConfig config;
  config.family = ScenarioFamily::kMixed;
  config.topology = BodyTopology::kStar;
  config.num_source_relations = 6;
  config.num_target_relations = 6;
  config.max_arity = 5;
  config.num_tgds = 6;
  config.body_atoms = 4;
  config.shared_var_density = 85;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RunCase(config, seed * 2741 + 7);
  }
}

}  // namespace
}  // namespace qimap
