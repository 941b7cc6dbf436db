#include <gtest/gtest.h>

#include <vector>

#include "base/budget.h"
#include "core/lav_quasi_inverse.h"
#include "core/quasi_inverse.h"
#include "core/soundness.h"
#include "dependency/parser.h"
#include "relational/homomorphism.h"
#include "workload/paper_catalog.h"
#include "workload/scenario_gen.h"

namespace qimap {
namespace {

RoundTrip MustRoundTrip(const SchemaMapping& m, const ReverseMapping& rev,
                        const Instance& ground) {
  Result<RoundTrip> trip = CheckRoundTrip(m, rev, ground);
  EXPECT_TRUE(trip.ok()) << trip.status();
  return std::move(trip).value();
}

TEST(SoundnessTest, Figure1JoinQuasiInverseIsFaithful) {
  // Example 6.1 / Figure 1, left path: chasing back with M' recovers V1
  // whose re-chase is identical to U.
  SchemaMapping m = catalog::Decomposition();
  ReverseMapping rev = catalog::DecompositionQuasiInverseJoin(m);
  Instance i = catalog::Fig1Instance(m);
  RoundTrip trip = MustRoundTrip(m, rev, i);
  EXPECT_TRUE(trip.sound);
  EXPECT_TRUE(trip.faithful);
  ASSERT_EQ(trip.recovered.size(), 1u);
  // V1 = {P(a,b,c), P(a,b,c'), P(a',b,c), P(a',b,c')}.
  EXPECT_EQ(trip.recovered[0].ToString(),
            "P(a',b,c'), P(a',b,c), P(a,b,c'), P(a,b,c)");
  // Re-chasing V1 gives exactly U (Figure 1: "the result is identical").
  ASSERT_EQ(trip.rechased.size(), 1u);
  EXPECT_TRUE(trip.rechased[0] == trip.universal);
}

TEST(SoundnessTest, Figure1SplitQuasiInverseIsFaithful) {
  // Example 6.1, right path: M'' recovers V2 with nulls; the re-chase U2
  // has extra null rows but is homomorphically equivalent to U.
  SchemaMapping m = catalog::Decomposition();
  ReverseMapping rev = catalog::DecompositionQuasiInverseSplit(m);
  Instance i = catalog::Fig1Instance(m);
  RoundTrip trip = MustRoundTrip(m, rev, i);
  EXPECT_TRUE(trip.sound);
  EXPECT_TRUE(trip.faithful);
  ASSERT_EQ(trip.recovered.size(), 1u);
  EXPECT_EQ(trip.recovered[0].NumFacts(), 4u);
  ASSERT_EQ(trip.rechased.size(), 1u);
  EXPECT_GT(trip.rechased[0].NumFacts(), trip.universal.NumFacts());
  EXPECT_TRUE(HomomorphicallyEquivalent(trip.rechased[0], trip.universal));
}

TEST(SoundnessTest, EmptyInstanceTriviallyFaithful) {
  SchemaMapping m = catalog::Decomposition();
  ReverseMapping rev = catalog::DecompositionQuasiInverseJoin(m);
  Instance empty(m.source);
  RoundTrip trip = MustRoundTrip(m, rev, empty);
  EXPECT_TRUE(trip.sound);
  EXPECT_TRUE(trip.faithful);
}

TEST(SoundnessTest, UnionDisjunctiveQuasiInverseSound) {
  SchemaMapping m = catalog::Union();
  ReverseMapping rev = catalog::UnionQuasiInverseDisjunctive(m);
  Instance i = MustParseInstance(m.source, "P(a), Q(b)");
  RoundTrip trip = MustRoundTrip(m, rev, i);
  EXPECT_TRUE(trip.sound);
  // Some leaf (the one guessing P for a and Q for b, among others)
  // re-chases to exactly U.
  EXPECT_TRUE(trip.faithful);
  EXPECT_EQ(trip.recovered.size(), 4u);
}

TEST(SoundnessTest, ProjectionQuasiInverseFaithful) {
  SchemaMapping m = catalog::Projection();
  ReverseMapping rev = catalog::ProjectionQuasiInverse(m);
  Instance i = MustParseInstance(m.source, "P(a,b), P(c,d)");
  RoundTrip trip = MustRoundTrip(m, rev, i);
  EXPECT_TRUE(trip.sound);
  EXPECT_TRUE(trip.faithful);
  ASSERT_TRUE(trip.faithful_witness.has_value());
  // The recovered instance has null second columns.
  EXPECT_FALSE(trip.recovered[*trip.faithful_witness].IsGround());
}

TEST(SoundnessTest, QuasiInverseAlgorithmOutputsAreFaithful) {
  // Theorem 6.8 on the quasi-invertible catalog entries.
  for (const char* text : {"P(a,b,c)", "P(a,b,c), P(a',b,c')",
                           "P(a,a,a)", "P(a,b,c), P(c,b,a), P(a,a,a)"}) {
    SchemaMapping m = catalog::Decomposition();
    ReverseMapping rev = MustQuasiInverse(m);
    Instance i = MustParseInstance(m.source, text);
    RoundTrip trip = MustRoundTrip(m, rev, i);
    EXPECT_TRUE(trip.sound) << text;
    EXPECT_TRUE(trip.faithful) << text;
  }
}

// One budget bounds the whole round trip: the forward chase, the
// disjunctive chase and every re-chase tick the same step count.
TEST(SoundnessTest, BudgetBoundsEveryChaseOfTheRoundTrip) {
  SchemaMapping m = catalog::Decomposition();
  ReverseMapping rev =
      MustParseReverseMapping(m, "Q(x,y) & R(y,z) -> P(x,y,z)");
  Instance i = MustParseInstance(m.source, "P(a,b,c), P(d,b,e)");

  // The forward chase has two triggers; one step trips it.
  Budget one_step(BudgetSpec::StepsOnly(1));
  DisjunctiveChaseOptions options;
  options.budget = &one_step;
  Result<RoundTrip> tripped = CheckRoundTrip(m, rev, i, options);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(one_step.tripped(), BudgetLimit::kSteps);

  // A budget one step short of the whole round trip trips in the last
  // re-chase.
  Budget ample(BudgetSpec::StepsOnly(1u << 20));
  options.budget = &ample;
  ASSERT_TRUE(CheckRoundTrip(m, rev, i, options).ok());
  ASSERT_GT(ample.steps(), 1u);
  Budget short_by_one(BudgetSpec::StepsOnly(ample.steps() - 1));
  options.budget = &short_by_one;
  std::vector<Instance> partial;
  options.partial_out = &partial;
  Result<RoundTrip> rechase_tripped = CheckRoundTrip(m, rev, i, options);
  ASSERT_FALSE(rechase_tripped.ok());
  EXPECT_EQ(short_by_one.tripped(), BudgetLimit::kSteps);
  // The disjunctive chase had finished, so its leaves are not partial.
  EXPECT_TRUE(partial.empty());
}

TEST(SoundnessTest, UnsoundReverseMappingDetected) {
  // A reverse rule inventing unrelated facts breaks soundness: the
  // re-chase contains target facts that cannot map into U.
  SchemaMapping m = MustParseMapping("P/1, W/1", "Q/1, X/1",
                                     "P(x) -> Q(x); W(x) -> X(x)");
  ReverseMapping bad = MustParseReverseMapping(m, "Q(x) -> W(x)");
  Instance i = MustParseInstance(m.source, "P(a)");
  RoundTrip trip = MustRoundTrip(m, bad, i);
  // U = {Q(a)}; V = {W(a)}; chase(V) = {X(a)} which has no homomorphism
  // into U.
  EXPECT_FALSE(trip.sound);
  EXPECT_FALSE(trip.faithful);
}

TEST(SoundnessTest, SoundButNotFaithfulReverseMapping) {
  // Recovering nothing is sound (the empty re-chase maps into U) but not
  // faithful (U does not map back).
  SchemaMapping m = catalog::Projection();
  ReverseMapping lossy = MustParseReverseMapping(
      m, "Q(x) & x != x -> exists y: P(x,y)");  // never fires
  Instance i = MustParseInstance(m.source, "P(a,b)");
  RoundTrip trip = MustRoundTrip(m, lossy, i);
  EXPECT_TRUE(trip.sound);
  EXPECT_FALSE(trip.faithful);
}

// Thms 6.7/6.8 over generated mappings in the shape of perfbench's
// roundtrip corpus: LAV and GAV alternate over the chain, star and cycle
// topologies, each with 2 tgds of fan-out 1, arity <= 2, at most one
// existential, and a matched 4-fact source instance.
TEST(SoundnessTest, GeneratedScenariosRoundTripSoundAndFaithful) {
  constexpr BodyTopology kTopologies[] = {
      BodyTopology::kChain, BodyTopology::kStar, BodyTopology::kCycle};
  for (uint64_t i = 0; i < 240; ++i) {
    ScenarioConfig config;
    config.family = i % 2 == 0 ? ScenarioFamily::kLav : ScenarioFamily::kGav;
    config.topology = kTopologies[(i / 2) % 3];
    config.body_atoms = 2;  // GAV joins; LAV pins it to 1
    config.fan_out = 1;
    config.num_source_relations = 3;
    config.num_target_relations = 3;
    config.max_arity = 2;
    config.num_tgds = 2;
    config.max_existential_vars = 1;
    Scenario s = GenerateScenario(config, 6700 + i, 4);
    SCOPED_TRACE(CorpusCaseToString(s));
    Result<ReverseMapping> rev = QuasiInverse(s.mapping);
    ASSERT_TRUE(rev.ok()) << rev.status();
    ASSERT_FALSE(rev->partial);
    RoundTrip trip = MustRoundTrip(s.mapping, *rev, s.source);
    EXPECT_TRUE(trip.sound);
    EXPECT_TRUE(trip.faithful);
    if (config.family == ScenarioFamily::kLav) {
      Result<ReverseMapping> lav = LavQuasiInverse(s.mapping);
      ASSERT_TRUE(lav.ok()) << lav.status();
      EXPECT_TRUE(MustRoundTrip(s.mapping, *lav, s.source).sound);
    }
  }
}

}  // namespace
}  // namespace qimap
