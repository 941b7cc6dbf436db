#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chase.h"
#include "dependency/schema_mapping.h"
#include "relational/homomorphism.h"
#include "relational/instance.h"
#include "relational/instance_enum.h"
#include "workload/random_mappings.h"
#include "random_testing.h"

// Randomized differential test of the indexed chase hot path against the
// naive full-scan oracle (`ChaseOptions::use_index = false`). The two
// paths share everything above the matcher's candidate enumeration, so a
// divergence pins the bug to the hash index or the index-informed join
// order. 200+ seeded cases across the paper's mapping classes
// (StandardShapes in random_testing.h).

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

}  // namespace
}  // namespace qimap
