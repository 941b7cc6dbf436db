// Property sweeps for the composition operator: random two-hop pipelines
// checked against the exact membership oracle and the two-step chase.

#include <gtest/gtest.h>

#include "base/rng.h"
#include "chase/chase.h"
#include "core/composition.h"
#include "core/so_composition.h"
#include "dependency/satisfaction.h"
#include "relational/homomorphism.h"
#include "relational/instance_enum.h"
#include "workload/random_mappings.h"
#include "random_testing.h"

namespace qimap {
namespace {

class ComposeSeededTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ComposeSeededTest,
                         ::testing::Range<uint64_t>(1, 13));

// Builds a random two-hop pipeline m12 : S -> T and m23 : T -> W.
struct Pipeline {
  SchemaMapping m12;
  SchemaMapping m23;
};

Pipeline RandomPipeline(Rng* rng, bool full_first) {
  RandomMappingConfig config12 = SmallPairConfig();
  config12.max_lhs_atoms = 2;
  config12.max_existential_vars = full_first ? 0 : 1;
  Pipeline pipeline;
  pipeline.m12 = RandomMapping(rng, config12);

  Schema w;
  Result<RelationId> w1 = w.AddRelation("W1", 2);
  Result<RelationId> w2 = w.AddRelation("W2", 1);
  (void)w1;
  (void)w2;
  RandomMappingConfig config23;
  config23.num_tgds = 2;
  config23.max_lhs_atoms = 2;
  config23.max_existential_vars = 1;
  pipeline.m23 = RandomMappingBetween(
      pipeline.m12.target, std::make_shared<const Schema>(std::move(w)),
      rng, config23);
  return pipeline;
}

// The full-first unfolding holds no two tgds equal up to renaming and
// agrees with the exact membership oracle on a bounded pair space, for
// random full-first pipelines.
TEST_P(ComposeSeededTest, UnfoldingAgreesWithOracle) {
  Rng rng(GetParam() * 70001);
  Pipeline pipeline = RandomPipeline(&rng, /*full_first=*/true);
  Result<SchemaMapping> composed =
      ComposeFullFirst(pipeline.m12, pipeline.m23);
  ASSERT_TRUE(composed.ok()) << pipeline.m12.ToString();
  EXPECT_FALSE(HasRenamedDuplicate(*composed))
      << pipeline.m12.ToString() << pipeline.m23.ToString()
      << composed->ToString();
  EnumerationSpace source_space{pipeline.m12.source, MakeDomain({"a", "b"}),
                                1};
  EnumerationSpace target_space{pipeline.m23.target, MakeDomain({"a", "b"}),
                                2};
  ForEachInstance(source_space, [&](const Instance& i) {
    ForEachInstance(target_space, [&](const Instance& k) {
      Result<bool> oracle =
          InForwardComposition(pipeline.m12, pipeline.m23, i, k);
      EXPECT_TRUE(oracle.ok());
      EXPECT_EQ(*oracle, SatisfiesAll(i, k, *composed))
          << pipeline.m12.ToString() << pipeline.m23.ToString()
          << "i = " << i.ToString() << "; k = " << k.ToString();
      return true;
    });
    return true;
  });
}

// The SO composition's chase equals the two-step chase, for random
// pipelines whose first hop may invent values.
TEST_P(ComposeSeededTest, SoChaseEqualsTwoStepChase) {
  Rng rng(GetParam() * 90007);
  Pipeline pipeline = RandomPipeline(&rng, /*full_first=*/false);
  Result<SoMapping> composed = ComposeSo(pipeline.m12, pipeline.m23);
  ASSERT_TRUE(composed.ok());
  for (int trial = 0; trial < 4; ++trial) {
    Instance i = RandomGroundInstance(pipeline.m12.source,
                                      MakeDomain({"a", "b", "c"}), 3, &rng);
    Instance two_step =
        MustChase(MustChase(i, pipeline.m12), pipeline.m23);
    Result<Instance> direct = SoChase(i, *composed);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(HomomorphicallyEquivalent(two_step, *direct))
        << pipeline.m12.ToString() << pipeline.m23.ToString()
        << "I: " << i.ToString() << "\ntwo-step: " << two_step.ToString()
        << "\ndirect: " << direct->ToString();
  }
}

// Skolemizing and composing with the identity second hop is a no-op up
// to homomorphic equivalence.
TEST_P(ComposeSeededTest, IdentitySecondHopIsNeutral) {
  Rng rng(GetParam() * 110017);
  RandomMappingConfig config = SmallPairConfig();
  SchemaMapping m12 = RandomMapping(&rng, config);
  // Identity hop: copy every target relation to a replica schema.
  Schema replica;
  for (RelationId r = 0; r < m12.target->size(); ++r) {
    Result<RelationId> id = replica.AddRelation(
        m12.target->relation(r).name + "_c", m12.target->relation(r).arity);
    (void)id;
  }
  SchemaMapping identity;
  identity.source = m12.target;
  identity.target = std::make_shared<const Schema>(std::move(replica));
  for (RelationId r = 0; r < m12.target->size(); ++r) {
    Tgd tgd;
    Atom lhs{r, {}};
    for (uint32_t p = 0; p < m12.target->relation(r).arity; ++p) {
      lhs.args.push_back(Value::MakeVariable("v" + std::to_string(p)));
    }
    Atom rhs = lhs;
    tgd.lhs.push_back(lhs);
    tgd.rhs.push_back(rhs);
    identity.tgds.push_back(std::move(tgd));
  }
  Result<SoMapping> composed = ComposeSo(m12, identity);
  ASSERT_TRUE(composed.ok());
  Instance i = RandomGroundInstance(m12.source, MakeDomain({"a", "b"}), 3,
                                    &rng);
  Instance hop = MustChase(i, m12);
  Result<Instance> direct = SoChase(i, *composed);
  ASSERT_TRUE(direct.ok());
  // Same facts, modulo the replica relation ids; compare rendered forms
  // after stripping the "_c" suffix is overkill — compare per-relation
  // tuple sets positionally instead, up to hom equivalence.
  Instance reinterpreted(identity.target);
  for (const Fact& fact : hop.Facts()) {
    Status status = reinterpreted.AddFact(fact.relation, fact.tuple);
    EXPECT_TRUE(status.ok());
  }
  EXPECT_TRUE(HomomorphicallyEquivalent(reinterpreted, *direct))
      << m12.ToString();
}

}  // namespace
}  // namespace qimap
