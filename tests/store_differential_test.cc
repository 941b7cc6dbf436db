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

// Every read the store offers: rendering, fingerprint, rows in row-id
// order, membership, per-column distinct counts and the posting list of
// every stored value (and of one never stored) in every column.
void ExpectSameStore(const Instance& got, const Instance& want) {
  EXPECT_EQ(got.ToString(), want.ToString());
  EXPECT_EQ(got.Fingerprint(), want.Fingerprint());
  std::vector<Value> domain = want.ActiveDomain();
  domain.push_back(Value::MakeConstant("never_stored"));
  auto rows_with = [](const Instance& inst, RelationId r, uint32_t col,
                      const Value& v) {
    std::vector<uint32_t> rows;
    for (uint32_t row : inst.RowsWith(r, col, v)) rows.push_back(row);
    return rows;
  };
  for (RelationId r = 0; r < want.schema()->size(); ++r) {
    ASSERT_EQ(got.NumRows(r), want.NumRows(r));
    for (uint32_t row = 0; row < want.NumRows(r); ++row) {
      EXPECT_EQ(got.Row(r, row), want.Row(r, row));
      EXPECT_TRUE(got.ContainsFact(r, want.Row(r, row)));
    }
    for (uint32_t col = 0; col < want.schema()->relation(r).arity; ++col) {
      EXPECT_EQ(got.ColumnDistinct(r, col), want.ColumnDistinct(r, col));
      for (const Value& v : domain) {
        EXPECT_EQ(rows_with(got, r, col, v), rows_with(want, r, col, v));
      }
    }
  }
}

// The chased facts of one generated scenario (nulls and constants, every
// relation arity up to 3), each listed twice so that the second add is a
// duplicate the store absorbs.
std::vector<Fact> ChasedFacts(uint64_t seed, SchemaPtr* schema) {
  ScenarioConfig config;
  config.family = ScenarioFamily::kMixed;
  config.body_atoms = 2;
  Scenario scenario = GenerateScenario(config, seed, /*num_facts=*/120);
  Instance chased = MustChase(scenario.source, scenario.mapping);
  *schema = chased.schema();
  std::vector<Fact> facts;
  for (RelationId r = 0; r < chased.schema()->size(); ++r) {
    for (uint32_t row = 0; row < chased.NumRows(r); ++row) {
      facts.push_back({r, chased.Row(r, row)});
      facts.push_back({r, chased.Row(r, row)});
    }
  }
  return facts;
}

// Reserving tables changes where rows hash to, never what the store holds
// or answers: an instance reserved up front for its facts, one reserved
// for half of them (so it grows past the reservation), one reserved
// midway, once it holds rows to rehash, and a copy all read exactly like
// one grown fact by fact, also after the copy and the grown instance take
// further facts.
TEST_F(StoreDifferentialTest, ReservedStoreReadsLikeGrownStore) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SchemaPtr schema;
    std::vector<Fact> facts = ChasedFacts(seed * 7307 + 3, &schema);
    const size_t first = facts.size() * 3 / 4;
    std::vector<size_t> per_relation(schema->size(), 0);
    for (size_t i = 0; i < first; ++i) ++per_relation[facts[i].relation];

    Instance grown(schema);
    Instance reserved(schema);
    Instance half_reserved(schema);
    Instance late_reserved(schema);
    for (RelationId r = 0; r < schema->size(); ++r) {
      reserved.Reserve(r, per_relation[r]);
      half_reserved.Reserve(r, per_relation[r] / 2);
    }
    for (size_t i = 0; i < first; ++i) {
      if (i == first / 2) {
        for (RelationId r = 0; r < schema->size(); ++r) {
          late_reserved.Reserve(r, 2 * per_relation[r]);
        }
      }
      for (Instance* inst : {&grown, &reserved, &half_reserved,
                             &late_reserved}) {
        ASSERT_TRUE(inst->AddFact(facts[i].relation, facts[i].tuple).ok());
      }
    }
    ExpectSameStore(reserved, grown);
    ExpectSameStore(half_reserved, grown);
    ExpectSameStore(late_reserved, grown);

    Instance copy = reserved;
    ExpectSameStore(copy, grown);
    for (size_t i = first; i < facts.size(); ++i) {
      for (Instance* inst : {&grown, &copy}) {
        ASSERT_TRUE(inst->AddFact(facts[i].relation, facts[i].tuple).ok());
      }
    }
    ExpectSameStore(copy, grown);
  }
}

TEST_F(StoreDifferentialTest, ReserveAtOrBelowRowCountChangesNothing) {
  SchemaPtr schema;
  std::vector<Fact> facts = ChasedFacts(42, &schema);
  Instance grown(schema);
  Instance reserved(schema);
  for (const Fact& fact : facts) {
    ASSERT_TRUE(grown.AddFact(fact.relation, fact.tuple).ok());
    ASSERT_TRUE(reserved.AddFact(fact.relation, fact.tuple).ok());
  }
  for (RelationId r = 0; r < schema->size(); ++r) {
    reserved.Reserve(r, reserved.NumRows(r));
    reserved.Reserve(r, 0);
  }
  ExpectSameStore(reserved, grown);
}

}  // namespace
}  // namespace qimap
