#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chase.h"
#include "chase/disjunctive_chase.h"
#include "core/lav_quasi_inverse.h"
#include "core/quasi_inverse.h"
#include "dependency/parser.h"
#include "dependency/satisfaction.h"
#include "obs/journal.h"
#include "relational/instance_enum.h"
#include "workload/paper_catalog.h"
#include "workload/random_mappings.h"
#include "random_testing.h"

namespace qimap {
namespace {

TEST(DisjunctiveChaseTest, NoDisjunctionSingleLeaf) {
  SchemaMapping m = catalog::Decomposition();
  ReverseMapping rev = catalog::DecompositionQuasiInverseJoin(m);
  Instance u = MustParseInstance(m.target, "Q(a,b), R(b,c)");
  std::vector<Instance> leaves = MustDisjunctiveChase(u, rev);
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0].ToString(), "P(a,b,c)");
}

TEST(DisjunctiveChaseTest, DisjunctionBranches) {
  SchemaMapping m = catalog::Union();
  ReverseMapping rev = catalog::UnionQuasiInverseDisjunctive(m);
  Instance u = MustParseInstance(m.target, "S(a)");
  std::vector<Instance> leaves = MustDisjunctiveChase(u, rev);
  ASSERT_EQ(leaves.size(), 2u);
  std::vector<std::string> rendered = {leaves[0].ToString(),
                                       leaves[1].ToString()};
  std::sort(rendered.begin(), rendered.end());
  EXPECT_EQ(rendered[0], "P(a)");
  EXPECT_EQ(rendered[1], "Q(a)");
}

TEST(DisjunctiveChaseTest, TwoFactsFourLeaves) {
  SchemaMapping m = catalog::Union();
  ReverseMapping rev = catalog::UnionQuasiInverseDisjunctive(m);
  Instance u = MustParseInstance(m.target, "S(a), S(b)");
  std::vector<Instance> leaves = MustDisjunctiveChase(u, rev);
  EXPECT_EQ(leaves.size(), 4u);
}

TEST(DisjunctiveChaseTest, LeavesSatisfyTheDependencies) {
  SchemaMapping m = catalog::Union();
  ReverseMapping rev = catalog::UnionQuasiInverseDisjunctive(m);
  Instance u = MustParseInstance(m.target, "S(a), S(b), S(c)");
  for (const Instance& leaf : MustDisjunctiveChase(u, rev)) {
    EXPECT_TRUE(SatisfiesAllReverse(u, leaf, rev));
  }
}

TEST(DisjunctiveChaseTest, ExistentialsBecomeFreshNulls) {
  SchemaMapping m = catalog::Projection();
  ReverseMapping rev = catalog::ProjectionQuasiInverse(m);
  Instance u = MustParseInstance(m.target, "Q(a)");
  std::vector<Instance> leaves = MustDisjunctiveChase(u, rev);
  ASSERT_EQ(leaves.size(), 1u);
  std::vector<Fact> facts = leaves[0].Facts();
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].tuple[0], Value::MakeConstant("a"));
  EXPECT_TRUE(facts[0].tuple[1].IsNull());
}

TEST(DisjunctiveChaseTest, AlreadySatisfiedStepDoesNotFire) {
  SchemaMapping m = catalog::Decomposition();
  // Split quasi-inverse: Q and R rows recovered independently.
  ReverseMapping rev = catalog::DecompositionQuasiInverseSplit(m);
  Instance u = MustParseInstance(m.target, "Q(a,b), R(b,c)");
  std::vector<Instance> leaves = MustDisjunctiveChase(u, rev);
  ASSERT_EQ(leaves.size(), 1u);
  // Two facts: P(a,b,N) and P(N',b,c).
  EXPECT_EQ(leaves[0].NumFacts(), 2u);
}

TEST(DisjunctiveChaseTest, ConstantGuardBlocksNullMatches) {
  SchemaMapping m = catalog::Projection();
  ReverseMapping rev = MustParseReverseMapping(
      m, "Q(x) & Constant(x) -> exists y: P(x,y)");
  Instance u = MustParseInstance(m.target, "Q(_N1)");
  std::vector<Instance> leaves = MustDisjunctiveChase(u, rev);
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_TRUE(leaves[0].Empty());
}

TEST(DisjunctiveChaseTest, EmptyTargetSingleEmptyLeaf) {
  SchemaMapping m = catalog::Union();
  ReverseMapping rev = catalog::UnionQuasiInverseDisjunctive(m);
  Instance u(m.target);
  std::vector<Instance> leaves = MustDisjunctiveChase(u, rev);
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_TRUE(leaves[0].Empty());
}

TEST(DisjunctiveChaseTest, MaxLeavesGuard) {
  SchemaMapping m = catalog::Union();
  ReverseMapping rev = catalog::UnionQuasiInverseDisjunctive(m);
  Instance u = MustParseInstance(m.target,
                                 "S(a), S(b), S(c), S(d), S(e)");
  DisjunctiveChaseOptions options;
  options.max_leaves = 8;  // 2^5 = 32 leaves needed
  Result<std::vector<Instance>> result = DisjunctiveChase(u, rev, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(DisjunctiveChaseTest, StatsReported) {
  SchemaMapping m = catalog::Union();
  ReverseMapping rev = catalog::UnionQuasiInverseDisjunctive(m);
  Instance u = MustParseInstance(m.target, "S(a), S(b)");
  DisjunctiveChaseStats stats;
  Result<std::vector<Instance>> result =
      DisjunctiveChase(u, rev, {}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.leaves, 4u);
  EXPECT_GE(stats.steps, 3u);   // 1 root + 2 second-level expansions
  EXPECT_GE(stats.nodes, 7u);
}

TEST(DisjunctiveChaseTest, FigureOneSplitRecovery) {
  // Figure 1's V2: the split quasi-inverse recovers four P-facts with
  // nulls from U = Q(a,b), Q(a',b), R(b,c), R(b,c').
  SchemaMapping m = catalog::Decomposition();
  ReverseMapping rev = catalog::DecompositionQuasiInverseSplit(m);
  Instance i = catalog::Fig1Instance(m);
  Instance u = MustChase(i, m);
  std::vector<Instance> leaves = MustDisjunctiveChase(u, rev);
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0].NumFacts(), 4u);
}

// A reverse mapping from a seeded random LAV mapping (LavQuasiInverse
// covers every LAV mapping) plus the target instance to chase with it.
struct LavCase {
  ReverseMapping reverse;
  Instance target;
};

LavCase MakeLavCase(uint64_t seed) {
  Rng rng(seed);
  SchemaMapping m = RandomLavMapping(&rng, /*num_tgds=*/3);
  ReverseMapping reverse = MustLavQuasiInverse(m);
  std::vector<Value> domain = MakeDomain({"a", "b", "c"});
  Instance source = RandomGroundInstance(m.source, domain, 4, &rng);
  return LavCase{std::move(reverse), MustChase(source, m)};
}

// The provenance journal of one chase tree: every derived fact's parents
// and minted nulls were journaled before it.
TEST(DisjunctiveChaseTest, JournalRecordsParentsBeforeChildren) {
  LavCase c = MakeLavCase(4242);
  obs::Journal::Clear();
  obs::Journal::Enable();
  Result<std::vector<Instance>> leaves =
      DisjunctiveChase(c.target, c.reverse);
  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  obs::Journal::Disable();
  obs::Journal::Clear();
  ASSERT_TRUE(leaves.ok()) << leaves.status().ToString();
  ASSERT_FALSE(events.empty());
  for (const obs::JournalEvent& event : events) {
    for (uint64_t parent : event.parents) EXPECT_LT(parent, event.id);
    for (uint64_t null_id : event.nulls) EXPECT_LT(null_id, event.id);
  }
}

// One golden case: a reverse mapping and the target instance it chases.
struct GoldenCase {
  std::string name;
  ReverseMapping reverse;
  Instance target;
};

std::vector<GoldenCase> TraversalGoldenCases() {
  std::vector<GoldenCase> cases;
  SchemaMapping un = catalog::Union();
  cases.push_back({"union", catalog::UnionQuasiInverseDisjunctive(un),
                   MustParseInstance(un.target, "S(a), S(b), S(c)")});
  SchemaMapping fig1 = catalog::Decomposition();
  cases.push_back({"figure1", MustQuasiInverse(fig1),
                   MustParseInstance(fig1.target,
                                     "Q(a,b), R(b,c), Q(d,b), R(b,e)")});
  SchemaMapping nulls = MustParseMapping(
      "P/1, Q/1, T/2", "S/1, E/2", "P(x) -> S(x); T(x,y) -> E(x,y)");
  cases.push_back(
      {"existential",
       MustParseReverseMapping(
           nulls,
           "S(x) -> P(x) | (exists z: T(x,z)); "
           "E(x,y) -> T(x,y) | (exists w: T(w,y) & Q(x))"),
       MustParseInstance(nulls.target, "S(a), S(b), E(a,b), E(b,c)")});
  LavCase lav = MakeLavCase(4242);
  cases.push_back({"lav4242", std::move(lav.reverse), std::move(lav.target)});
  return cases;
}

// Renders one case's traversal: the stats, the leaves in the order the
// chase returns them, and the normalized provenance journal (event ids
// rebased, run zeroed), whose node ids and null labels follow the order
// in which the tree's nodes were expanded.
std::string RenderTraversal(const GoldenCase& c) {
  obs::Journal::Clear();
  obs::Journal::Enable();
  DisjunctiveChaseStats stats;
  Result<std::vector<Instance>> leaves =
      DisjunctiveChase(c.target, c.reverse, {}, &stats);
  std::vector<std::string> journal = NormalizedJournalLines();
  obs::Journal::Disable();
  obs::Journal::Clear();
  std::ostringstream out;
  out << "case " << c.name << "\n";
  if (!leaves.ok()) {
    out << "error " << leaves.status().ToString() << "\n";
    return out.str();
  }
  out << "stats steps=" << stats.steps << " nodes=" << stats.nodes
      << " leaves=" << stats.leaves << " branches=" << stats.branches
      << " dedup_dropped=" << stats.dedup_dropped
      << " nulls_minted=" << stats.nulls_minted << "\n";
  for (const Instance& leaf : *leaves) {
    out << "leaf " << leaf.ToString() << "\n";
  }
  for (const std::string& line : journal) out << "event " << line << "\n";
  return out.str();
}

// Pins the breadth-first traversal order of the chase tree: leaves, null
// labels, node ids and journal order, over trees at least three levels
// deep. A deliberate change regenerates the golden file with
//   QIMAP_REGEN_GOLDEN=1 ./qimap_tests --gtest_filter='*Golden*'
TEST(DisjunctiveChaseGoldenTest, TraversalMatchesRecordedTrees) {
  const std::string path =
      std::string(QIMAP_TESTS_DIR) + "/golden/dchase_traversal.txt";
  std::string actual;
  for (const GoldenCase& c : TraversalGoldenCases()) {
    actual += RenderTraversal(c);
  }
  if (std::getenv("QIMAP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << "# Disjunctive chase traversals: per case the stats, the leaves "
           "in returned order\n# and the normalized journal. See "
           "disjunctive_chase_test.cc.\n"
        << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::string golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    golden += line + "\n";
  }
  EXPECT_EQ(actual, golden);
}

}  // namespace
}  // namespace qimap
