#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chase.h"
#include "chase/chase_checkpoint.h"
#include "dependency/schema_mapping.h"
#include "obs/metrics.h"
#include "relational/homomorphism.h"
#include "relational/instance.h"
#include "relational/instance_enum.h"
#include "workload/random_mappings.h"
#include "workload/scenario_gen.h"
#include "random_testing.h"

// Randomized differential test of the indexed chase hot path against the
// naive full-scan oracle (`ChaseOptions::use_index = false`). The two
// paths share everything above the matcher's candidate enumeration, so a
// divergence pins the bug to the hash index or the index-informed join
// order. 200+ seeded cases across the paper's mapping classes
// (StandardShapes in random_testing.h). A golden file recorded from an
// earlier build pins the indexed chase's outputs and the work it does.

namespace qimap {
namespace {

// Runs one seeded case through both paths. The sorted trigger batches
// make the outputs byte-identical, not merely homomorphically equivalent;
// the test asserts the strong property first (it catches more) and the
// paper-level property second (it is the semantic contract).
void RunCase(const CaseShape& shape, uint64_t seed) {
  Rng rng(seed);
  SchemaMapping m = RandomMapping(&rng, shape.config);
  std::vector<Value> domain = MakeDomain({"a", "b", "c", "d"});
  Instance source =
      RandomGroundInstance(m.source, domain, /*num_facts=*/6, &rng);

  ChaseOptions indexed;
  indexed.use_index = true;
  ChaseOptions naive;
  naive.use_index = false;

  Result<Instance> with_index = Chase(source, m, indexed);
  Result<Instance> without_index = Chase(source, m, naive);
  ASSERT_TRUE(with_index.ok()) << with_index.status().ToString();
  ASSERT_TRUE(without_index.ok()) << without_index.status().ToString();

  SCOPED_TRACE(std::string(shape.name) + " seed=" + std::to_string(seed) +
               "\n  source: " + source.ToString() +
               "\n  indexed: " + with_index->ToString() +
               "\n  naive:   " + without_index->ToString());
  EXPECT_EQ(with_index->ToString(), without_index->ToString());
  EXPECT_TRUE(HomomorphicallyEquivalent(*with_index, *without_index));
}

TEST(DifferentialChaseTest, IndexedMatchesNaiveAcross200SeededCases) {
  // 4 shapes x 50 seeds = 200 cases.
  size_t cases = 0;
  for (const CaseShape& shape : StandardShapes()) {
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      RunCase(shape, seed * 7919 + 17);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 200u);
}

// The naive oracle also pins down the homomorphism layer itself: both
// settings must enumerate exactly the same match sets.
TEST(DifferentialChaseTest, MatcherEnumeratesSameSetEitherWay) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 31 + 7);
    RandomMappingConfig config;
    config.max_lhs_atoms = 3;
    SchemaMapping m = RandomMapping(&rng, config);
    std::vector<Value> domain = MakeDomain({"a", "b", "c"});
    Instance source = RandomGroundInstance(m.source, domain, 8, &rng);
    for (const Tgd& tgd : m.tgds) {
      HomSearchOptions indexed;
      indexed.use_index = true;
      HomSearchOptions naive;
      naive.use_index = false;
      std::vector<Assignment> a =
          FindAllHomomorphisms(tgd.lhs, source, {}, indexed);
      std::vector<Assignment> b =
          FindAllHomomorphisms(tgd.lhs, source, {}, naive);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "seed " << seed;
    }
  }
}


// ---------------------------------------------------------------------
// Golden outputs and counters. An optimization of the chase must produce
// the same facts and do the same work: run the same searches, visit the
// same rows and fire the same triggers. The golden file pins, per
// generated case, the from-scratch output, the output of a resumed chase
// and every counter the case moves.
// ---------------------------------------------------------------------

// Process-independent content hash of a rendering.
uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Value order follows interning order, and the chase fires its triggers
// in value order, so a case's null labels and counters depend on which
// names the process interned first. The golden cases therefore run over
// names only this test uses ("g" + the generator's name), interned in
// numeric order before any case is generated.
constexpr int kGoldenMaxConstant = 100;  // scenario_gen's c1..c<facts/4>
constexpr int kGoldenMaxVariable = 16;   // scenario_gen's x<k> and y<k>

void InternGoldenNames() {
  for (int k = 1; k <= kGoldenMaxVariable; ++k) {
    Value::MakeVariable("gx" + std::to_string(k));
    Value::MakeVariable("gy" + std::to_string(k));
  }
  for (int k = 1; k <= kGoldenMaxConstant; ++k) {
    Value::MakeConstant("gc" + std::to_string(k));
  }
}

Value GoldenName(const Value& v) {
  if (v.IsNull()) return v;
  const std::string name = v.ToString();
  const int number = std::atoi(name.c_str() + 1);
  const int limit = v.IsConstant() ? kGoldenMaxConstant : kGoldenMaxVariable;
  EXPECT_TRUE(number >= 1 && number <= limit) << "unexpected name " << name;
  return v.IsConstant() ? Value::MakeConstant("g" + name)
                        : Value::MakeVariable("g" + name);
}

Atom GoldenAtom(const Atom& atom) {
  Atom out = atom;
  for (Value& v : out.args) v = GoldenName(v);
  return out;
}

// The nonzero counters, as ` name=value` pairs in name order.
std::string NonzeroCounters() {
  std::string out;
  for (const auto& [name, value] : obs::SnapshotMetrics().counters) {
    if (value != 0) out += " " + name + "=" + std::to_string(value);
  }
  return out;
}

// One golden line: `<hash of the from-scratch output> <hash of the resumed
// output>` and every counter the two runs moved. The resumed chase records
// on the first half of the facts, adds the rest and resumes.
std::string GoldenLine(const Scenario& generated) {
  SchemaMapping m = generated.mapping;
  for (Tgd& tgd : m.tgds) {
    for (Atom& atom : tgd.lhs) atom = GoldenAtom(atom);
    for (Atom& atom : tgd.rhs) atom = GoldenAtom(atom);
  }
  std::vector<Fact> facts;
  Instance source(m.source);
  for (RelationId r = 0; r < m.source->size(); ++r) {
    for (uint32_t row = 0; row < generated.source.NumRows(r); ++row) {
      Atom atom = GoldenAtom(Atom{r, generated.source.Row(r, row)});
      facts.push_back({atom.relation, atom.args});
      EXPECT_TRUE(source.AddFact(atom.relation, atom.args).ok());
    }
  }

  obs::ResetMetrics();
  Result<Instance> scratch = Chase(source, m);
  EXPECT_TRUE(scratch.ok()) << scratch.status().ToString();
  if (!scratch.ok()) return "error";

  Instance grown(m.source);
  const size_t half = facts.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    EXPECT_TRUE(grown.AddFact(facts[i].relation, facts[i].tuple).ok());
  }
  ChaseCheckpoint checkpoint;
  ChaseOptions recorded;
  recorded.incremental = &checkpoint;
  EXPECT_TRUE(Chase(grown, m, recorded).ok());
  for (size_t i = half; i < facts.size(); ++i) {
    EXPECT_TRUE(grown.AddFact(facts[i].relation, facts[i].tuple).ok());
  }
  ChaseStats stats;
  Result<Instance> resumed = Chase(grown, m, recorded, &stats);
  EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
  if (!resumed.ok()) return "error";
  EXPECT_TRUE(stats.resumed);

  // Fingerprint() hashes interned ids, so it cannot sit in the file; the
  // maintained fingerprints must instead equal a fresh insert's.
  Instance rebuilt(m.target);
  for (const Fact& fact : scratch->Facts()) {
    EXPECT_TRUE(rebuilt.AddFact(fact.relation, fact.tuple).ok());
  }
  EXPECT_EQ(scratch->Fingerprint(), rebuilt.Fingerprint());
  EXPECT_EQ(resumed->Fingerprint(), rebuilt.Fingerprint());

  return std::to_string(Fnv1a(scratch->ToString())) + " " +
         std::to_string(Fnv1a(resumed->ToString())) + NonzeroCounters();
}

// 4 families x 3 topologies x 10 seeds x {50, 400} facts, in the shape of
// perfbench's exchange corpus (2-atom bodies, 4 dependencies) with the
// fan-out swept over 1..3. A deliberate change of the chase's work
// regenerates the file with
//   QIMAP_REGEN_GOLDEN=1 ./qimap_tests --gtest_filter='*Golden*'
TEST(DifferentialChaseTest, OutputsAndCountersMatchGolden) {
  const std::string path =
      std::string(QIMAP_TESTS_DIR) + "/golden/chase_counters.txt";
  InternGoldenNames();
  std::map<std::string, std::string> actual;
  for (ScenarioFamily family : {ScenarioFamily::kLav, ScenarioFamily::kGav,
                                ScenarioFamily::kFull,
                                ScenarioFamily::kMixed}) {
    for (BodyTopology topology : {BodyTopology::kChain, BodyTopology::kStar,
                                  BodyTopology::kCycle}) {
      for (size_t facts : {50, 400}) {
        for (uint64_t seed = 1; seed <= 10; ++seed) {
          ScenarioConfig config;
          config.family = family;
          config.topology = topology;
          config.body_atoms = 2;
          config.fan_out = 1 + seed % 3;
          config.num_tgds = 4;
          config.max_arity = 3;
          const std::string key = std::string(ScenarioFamilyName(family)) +
                                  "-" + BodyTopologyName(topology) + "-f" +
                                  std::to_string(facts) + "-s" +
                                  std::to_string(seed);
          SCOPED_TRACE(key);
          actual[key] = GoldenLine(GenerateScenario(config, seed, facts));
        }
      }
    }
  }
  ASSERT_EQ(actual.size(), 240u);
  if (std::getenv("QIMAP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << "# Chase outputs and work per generated case: <case> <fnv1a of "
           "the from-scratch output>\n# <fnv1a of the resumed output> "
           "<every nonzero counter>. See differential_chase_test.cc.\n";
    for (const auto& [key, line] : actual) out << key << " " << line << "\n";
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    golden[line.substr(0, space)] = line.substr(space + 1);
  }
  EXPECT_EQ(golden.size(), actual.size());
  for (const auto& [key, expected] : golden) {
    EXPECT_EQ(actual[key], expected) << key;
  }
}

}  // namespace
}  // namespace qimap
