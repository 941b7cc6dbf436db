#include <gtest/gtest.h>

#include "chase/chase.h"
#include "core/solution_space.h"
#include "dependency/parser.h"
#include "relational/homomorphism.h"
#include "relational/instance_core.h"

namespace qimap {
namespace {

TEST(ChaseTest, FullTgdCopiesFacts) {
  SchemaMapping m = MustParseMapping("P/2", "Q/1", "P(x,y) -> Q(x)");
  Instance src = MustParseInstance(m.source, "P(a,b), P(c,d)");
  Instance result = MustChase(src, m);
  EXPECT_EQ(result.ToString(), "Q(a), Q(c)");
}

TEST(ChaseTest, ExistentialCreatesFreshNulls) {
  SchemaMapping m =
      MustParseMapping("P/1", "Q/2", "P(x) -> exists y: Q(x,y)");
  Instance src = MustParseInstance(m.source, "P(a), P(b)");
  Instance result = MustChase(src, m);
  EXPECT_EQ(result.NumFacts(), 2u);
  // The two existential witnesses must be distinct nulls.
  std::vector<Fact> facts = result.Facts();
  EXPECT_TRUE(facts[0].tuple[1].IsNull());
  EXPECT_TRUE(facts[1].tuple[1].IsNull());
  EXPECT_NE(facts[0].tuple[1], facts[1].tuple[1]);
}

TEST(ChaseTest, FreshNullsClearTheLargestInputLabel) {
  SchemaMapping m =
      MustParseMapping("P/1", "Q/2", "P(x) -> exists z: Q(x,z)");
  Instance src = MustParseInstance(m.source, "P(_N0), P(_N2147483647)");
  Instance result = MustChase(src, m);
  EXPECT_EQ(result.ToString(),
            "Q(_N0,_N2147483648), Q(_N2147483647,_N2147483649)");
  EXPECT_TRUE(IsSolution(m, src, result));
}

TEST(ChaseTest, ResultIsUniversalSolution) {
  SchemaMapping m = MustParseMapping(
      "P/2", "Q/2", "P(x,y) -> exists z: Q(x,z) & Q(z,y)");
  Instance src = MustParseInstance(m.source, "P(a,b)");
  Instance universal = MustChase(src, m);
  EXPECT_TRUE(IsSolution(m, src, universal));
  // Any other solution receives a homomorphism from the chase.
  Instance other = MustParseInstance(m.target, "Q(a,c), Q(c,b), Q(z,z)");
  ASSERT_TRUE(IsSolution(m, src, other));
  EXPECT_TRUE(ExistsInstanceHomomorphism(universal, other));
}

TEST(ChaseTest, DecompositionExampleFromFigure1) {
  SchemaMapping m = MustParseMapping("P/3", "Q/2, R/2",
                                     "P(x,y,z) -> Q(x,y) & R(y,z)");
  Instance src = MustParseInstance(m.source, "P(a,b,c), P(a',b,c')");
  Instance result = MustChase(src, m);
  EXPECT_EQ(result.ToString(), "Q(a',b), Q(a,b), R(b,c'), R(b,c)");
}

TEST(ChaseTest, StandardChaseSkipsSatisfiedMatches) {
  // Both tgds produce the same target atom shape; the second match is
  // already satisfied by the first firing when values coincide.
  SchemaMapping m = MustParseMapping("P/1, R/1", "Q/1",
                                     "P(x) -> Q(x); R(x) -> Q(x)");
  Instance src = MustParseInstance(m.source, "P(a), R(a)");
  Instance result = MustChase(src, m);
  EXPECT_EQ(result.NumFacts(), 1u);
}

TEST(ChaseTest, ExistentialNotDuplicatedWhenAlreadyWitnessed) {
  SchemaMapping m = MustParseMapping(
      "P/1, W/2", "Q/2", "W(x,y) -> Q(x,y); P(x) -> exists y: Q(x,y)");
  Instance src = MustParseInstance(m.source, "W(a,b), P(a)");
  Instance result = MustChase(src, m);
  // Q(a,b) already witnesses the existential for P(a).
  EXPECT_EQ(result.ToString(), "Q(a,b)");
}

TEST(ChaseTest, EmptySourceGivesEmptyTarget) {
  SchemaMapping m = MustParseMapping("P/2", "Q/1", "P(x,y) -> Q(x)");
  Instance src(m.source);
  EXPECT_TRUE(MustChase(src, m).Empty());
}

TEST(ChaseTest, CanonicalInstanceWithVariables) {
  // Chasing a canonical instance freezes its variables as plain values
  // (the paper's chase of I_beta in Section 4).
  SchemaMapping m = MustParseMapping(
      "P/3", "S/3, Q/2", "P(x1,x2,x3) -> exists y: S(x1,x2,y) & Q(y,y)");
  Instance canonical = MustParseInstance(m.source, "P(?x1,?x2,?x3)");
  Instance result = MustChase(canonical, m);
  ASSERT_EQ(result.NumFacts(), 2u);
  std::vector<Fact> facts = result.Facts();
  // S(x1,x2,N) with the frozen variables preserved.
  EXPECT_EQ(facts[0].tuple[0], Value::MakeVariable("x1"));
  EXPECT_EQ(facts[0].tuple[1], Value::MakeVariable("x2"));
  EXPECT_TRUE(facts[0].tuple[2].IsNull());
}

TEST(ChaseTest, FreshNullsAvoidInputNulls) {
  SchemaMapping m =
      MustParseMapping("P/1", "Q/2", "P(x) -> exists y: Q(x,y)");
  Instance src = MustParseInstance(m.source, "P(_N5)");
  Instance result = MustChase(src, m);
  std::vector<Fact> facts = result.Facts();
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_TRUE(facts[0].tuple[1].IsNull());
  EXPECT_GT(facts[0].tuple[1].id(), 5u);
}

TEST(ChaseTest, FirstNullLabelOverride) {
  SchemaMapping m =
      MustParseMapping("P/1", "Q/2", "P(x) -> exists y: Q(x,y)");
  Instance src = MustParseInstance(m.source, "P(a)");
  ChaseOptions options;
  options.first_null_label = 100;
  Result<Instance> result = Chase(src, m, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Facts()[0].tuple[1], Value::MakeNull(100));
}

TEST(ChaseTest, ChaseOfChaseIdempotentUpToHomEquivalence) {
  SchemaMapping m = MustParseMapping("P/3", "Q/2, R/2",
                                     "P(x,y,z) -> Q(x,y) & R(y,z)");
  Instance src = MustParseInstance(m.source, "P(a,b,c)");
  Instance u = MustChase(src, m);
  // Chasing a solution's preimage again yields the same instance.
  Instance u2 = MustChase(src, m);
  EXPECT_TRUE(u == u2);
}


TEST(ChaseTest, CoreOfChaseIsSmallestUniversalSolution) {
  SchemaMapping m = MustParseMapping(
    "P/1, W/2", "Q/2", "W(x,y) -> Q(x,y); P(x) -> exists y: Q(x,y)");
  // Process the existential rule first so a redundant null appears.
  std::swap(m.tgds[0], m.tgds[1]);
  Instance src = MustParseInstance(m.source, "W(a,b), P(a)");
  Instance standard = MustChase(src, m);
  Instance core = ComputeCore(standard);
  EXPECT_EQ(core.ToString(), "Q(a,b)");
  EXPECT_LT(core.NumFacts(), standard.NumFacts());
  EXPECT_TRUE(HomomorphicallyEquivalent(core, standard));
  EXPECT_TRUE(IsSolution(m, src, core));
}

TEST(ChaseStatsTest, DecompositionCountsTriggersAndFacts) {
  SchemaMapping m = MustParseMapping("P/3", "Q/2, R/2",
                                     "P(x,y,z) -> Q(x,y) & R(y,z)");
  Instance src = MustParseInstance(m.source, "P(a,b,c), P(a',b,c')");
  ChaseStats stats;
  Result<Instance> result = Chase(src, m, {}, &stats);
  ASSERT_TRUE(result.ok());
  // Two matches of the single tgd, both firing; no existentials, and the
  // four target facts Q(a,b), Q(a',b), R(b,c), R(b,c') are all distinct.
  EXPECT_EQ(stats.steps, 2u);
  EXPECT_EQ(stats.triggers_fired, 2u);
  EXPECT_EQ(stats.satisfaction_hits, 0u);
  EXPECT_EQ(stats.nulls_minted, 0u);
  EXPECT_EQ(stats.facts_added, 4u);
}

TEST(ChaseStatsTest, SatisfiedExistentialCountsAsHit) {
  SchemaMapping m = MustParseMapping(
      "P/1, W/2", "Q/2", "W(x,y) -> Q(x,y); P(x) -> exists y: Q(x,y)");
  Instance src = MustParseInstance(m.source, "W(a,b), P(a)");
  ChaseStats stats;
  Result<Instance> result = Chase(src, m, {}, &stats);
  ASSERT_TRUE(result.ok());
  // W(a,b) fires; Q(a,b) then witnesses the existential for P(a), so that
  // trigger is a satisfaction hit and no null is minted.
  EXPECT_EQ(stats.steps, 2u);
  EXPECT_EQ(stats.triggers_fired, 1u);
  EXPECT_EQ(stats.satisfaction_hits, 1u);
  EXPECT_EQ(stats.nulls_minted, 0u);
  EXPECT_EQ(stats.facts_added, 1u);
}

}  // namespace
}  // namespace qimap
