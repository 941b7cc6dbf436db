#include <gtest/gtest.h>

#include "core/framework.h"
#include "dependency/parser.h"
#include "obs/metrics.h"
#include "relational/instance_enum.h"
#include "workload/paper_catalog.h"

namespace qimap {
namespace {

BoundedSpace SmallSpace(size_t max_facts = 2) {
  return BoundedSpace{MakeDomain({"a", "b"}), max_facts};
}

BoundedCheckReport MustCheck(Result<BoundedCheckReport> result) {
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? *result : BoundedCheckReport{};
}

TEST(FrameworkTest, ProjectionFailsUniqueSolutions) {
  SchemaMapping m = catalog::Projection();
  FrameworkChecker checker(m, SmallSpace());
  BoundedCheckReport report = MustCheck(checker.CheckUniqueSolutions());
  EXPECT_FALSE(report.holds);
  ASSERT_TRUE(report.counterexample.has_value());
  // The witnesses must be genuinely ~M-equivalent yet distinct.
  EXPECT_FALSE(report.counterexample->i1 == report.counterexample->i2);
}

TEST(FrameworkTest, UnionFailsUniqueSolutions) {
  SchemaMapping m = catalog::Union();
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_FALSE(MustCheck(checker.CheckUniqueSolutions()).holds);
}

TEST(FrameworkTest, DecompositionFailsUniqueSolutions) {
  SchemaMapping m = catalog::Decomposition();
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_FALSE(MustCheck(checker.CheckUniqueSolutions()).holds);
}

TEST(FrameworkTest, Thm48SatisfiesUniqueSolutions) {
  SchemaMapping m = catalog::Thm48();
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_TRUE(MustCheck(checker.CheckUniqueSolutions()).holds);
}

TEST(FrameworkTest, ProjectionHasSimSubsetProperty) {
  SchemaMapping m = catalog::Projection();
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_TRUE(
      MustCheck(checker.CheckSubsetProperty(EquivKind::kSimM,
                                            EquivKind::kSimM))
          .holds);
}

TEST(FrameworkTest, ProjectionLacksEqualitySubsetProperty) {
  // Corollary 3.6: the (=,=)-subset property is equivalent to having an
  // inverse, and the projection has none.
  SchemaMapping m = catalog::Projection();
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_FALSE(
      MustCheck(checker.CheckSubsetProperty(EquivKind::kEquality,
                                            EquivKind::kEquality))
          .holds);
}

TEST(FrameworkTest, DecompositionHasStrongerSubsetProperty) {
  // Example 3.10 remark: the decomposition even has the (=, ~M)-subset
  // property.
  SchemaMapping m = catalog::Decomposition();
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_TRUE(
      MustCheck(checker.CheckSubsetProperty(EquivKind::kEquality,
                                            EquivKind::kSimM))
          .holds);
  EXPECT_TRUE(
      MustCheck(checker.CheckSubsetProperty(EquivKind::kSimM,
                                            EquivKind::kSimM))
          .holds);
}

TEST(FrameworkTest, Thm48HasEqualitySubsetProperty) {
  SchemaMapping m = catalog::Thm48();
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_TRUE(
      MustCheck(checker.CheckSubsetProperty(EquivKind::kEquality,
                                            EquivKind::kEquality))
          .holds);
}

TEST(FrameworkTest, ProjectionQuasiInverseVerifies) {
  SchemaMapping m = catalog::Projection();
  ReverseMapping rev = catalog::ProjectionQuasiInverse(m);
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_TRUE(MustCheck(checker.CheckGeneralizedInverse(
                            rev, EquivKind::kSimM, EquivKind::kSimM))
                  .holds);
}

TEST(FrameworkTest, ProjectionQuasiInverseIsNotAnInverse) {
  SchemaMapping m = catalog::Projection();
  ReverseMapping rev = catalog::ProjectionQuasiInverse(m);
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_FALSE(MustCheck(checker.CheckGeneralizedInverse(
                             rev, EquivKind::kEquality,
                             EquivKind::kEquality))
                   .holds);
}

TEST(FrameworkTest, AllFourUnionQuasiInversesVerify) {
  SchemaMapping m = catalog::Union();
  FrameworkChecker checker(m, SmallSpace());
  for (const ReverseMapping& rev :
       {catalog::UnionQuasiInverseDisjunctive(m),
        catalog::UnionQuasiInverseP(m), catalog::UnionQuasiInverseQ(m),
        catalog::UnionQuasiInverseBoth(m)}) {
    EXPECT_TRUE(MustCheck(checker.CheckGeneralizedInverse(
                              rev, EquivKind::kSimM, EquivKind::kSimM))
                    .holds)
        << rev.ToString();
  }
}

TEST(FrameworkTest, DecompositionBothQuasiInversesVerify) {
  SchemaMapping m = catalog::Decomposition();
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_TRUE(MustCheck(checker.CheckGeneralizedInverse(
                            catalog::DecompositionQuasiInverseJoin(m),
                            EquivKind::kSimM, EquivKind::kSimM))
                  .holds);
  EXPECT_TRUE(MustCheck(checker.CheckGeneralizedInverse(
                            catalog::DecompositionQuasiInverseSplit(m),
                            EquivKind::kSimM, EquivKind::kSimM))
                  .holds);
}

TEST(FrameworkTest, Thm48InverseVerifiesExactly) {
  SchemaMapping m = catalog::Thm48();
  ReverseMapping rev = catalog::Thm48Inverse(m);
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_TRUE(MustCheck(checker.CheckGeneralizedInverse(
                            rev, EquivKind::kEquality,
                            EquivKind::kEquality))
                  .holds);
}

TEST(FrameworkTest, Proposition37RefinementMonotonicity) {
  // Every (=,=)-inverse is also a (~M,~M)-inverse (Propositions 3.7/3.9).
  SchemaMapping m = catalog::Thm48();
  ReverseMapping rev = catalog::Thm48Inverse(m);
  FrameworkChecker checker(m, SmallSpace());
  ASSERT_TRUE(MustCheck(checker.CheckGeneralizedInverse(
                            rev, EquivKind::kEquality,
                            EquivKind::kEquality))
                  .holds);
  EXPECT_TRUE(MustCheck(checker.CheckGeneralizedInverse(
                            rev, EquivKind::kSimM, EquivKind::kSimM))
                  .holds);
}

TEST(FrameworkTest, TooWeakReverseMappingRejected) {
  // A reverse dependency that forgets the key column recovers too little
  // to be a quasi-inverse.
  SchemaMapping m = catalog::Projection();
  ReverseMapping weak =
      MustParseReverseMapping(m, "Q(x) -> exists u,v: P(u,v)");
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_FALSE(MustCheck(checker.CheckGeneralizedInverse(
                             weak, EquivKind::kSimM, EquivKind::kSimM))
                   .holds);
}

TEST(FrameworkTest, CollapsingReverseMappingIsAlsoAQuasiInverse) {
  // Quasi-inverses are far from unique: because ~M identifies all ground
  // instances with the same projection, even `Q(x) -> P(x,x)` verifies
  // (compare the Union example, where S(x) -> P(x) & Q(x) is one).
  SchemaMapping m = catalog::Projection();
  ReverseMapping collapsing =
      MustParseReverseMapping(m, "Q(x) -> P(x,x)");
  FrameworkChecker checker(m, SmallSpace());
  EXPECT_TRUE(MustCheck(checker.CheckGeneralizedInverse(
                            collapsing, EquivKind::kSimM,
                            EquivKind::kSimM))
                  .holds);
}

TEST(FrameworkTest, ReportStatisticsPopulated) {
  SchemaMapping m = catalog::Union();
  FrameworkChecker checker(m, SmallSpace());
  BoundedCheckReport report =
      MustCheck(checker.CheckSubsetProperty(EquivKind::kSimM,
                                            EquivKind::kSimM));
  EXPECT_GT(report.pairs_checked, 0u);
  EXPECT_GT(report.space_size, 0u);
  EXPECT_GT(report.sim_classes, 0u);
  EXPECT_LE(report.sim_classes, report.space_size);
}

uint64_t ChaseRuns() {
  auto counters = obs::SnapshotMetrics().counters;
  auto it = counters.find("chase.runs");
  return it != counters.end() ? it->second : 0;
}

// Prepare() chases every enumerated instance once; class saturation and
// the subset-property walk must reuse those chases instead of re-running
// them.
TEST(FrameworkTest, OneChasePerEnumeratedInstance) {
  for (const SchemaMapping& m : {catalog::Decomposition(), catalog::Union()}) {
    FrameworkChecker checker(m, SmallSpace());
    uint64_t before = ChaseRuns();
    MustCheck(checker.CheckUniqueSolutions());
    MustCheck(checker.CheckSubsetProperty(EquivKind::kSimM, EquivKind::kSimM));
    MustCheck(
        checker.CheckSubsetProperty(EquivKind::kEquality, EquivKind::kSimM));
    EXPECT_EQ(ChaseRuns() - before, checker.Instances().size())
        << m.ToString();
  }
}

}  // namespace
}  // namespace qimap
