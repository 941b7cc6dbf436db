// Edge cases and less-traveled option paths across modules: mixed
// equivalence kinds on non-LAV mappings, SO chase limits, forward
// composition budgets, CLI-adjacent parsing corners.

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "core/composition.h"
#include "core/framework.h"
#include "core/so_composition.h"
#include "dependency/parser.h"
#include "relational/instance_enum.h"
#include "workload/paper_catalog.h"

namespace qimap {
namespace {

TEST(FrameworkMixedKindsTest, SimEqualityOnNonLavMapping) {
  // Exercises the bounded fallback branch of Statement 1 with
  // eq1 = ~M and eq2 = equality on a join mapping.
  SchemaMapping m = catalog::Example54();  // non-LAV
  FrameworkChecker checker(m, {MakeDomain({"a", "b"}), 2});
  Result<BoundedCheckReport> report =
      checker.CheckSubsetProperty(EquivKind::kSimM, EquivKind::kEquality);
  ASSERT_TRUE(report.ok()) << report.status();
  // Example 5.4's mapping is invertible, so it has the (=,=)-subset
  // property, which implies every relaxed variant.
  EXPECT_TRUE(report->holds);
}

TEST(FrameworkMixedKindsTest, Thm410SeparatesTheSpectrumLevels) {
  // Theorem 4.10's mapping has the (~M,~M)-subset property (it is
  // quasi-invertible) but NOT the stronger (=,~M) one: for
  // I1 = {P1(a)}, I2 = {P2(a), P3(a)} we have Sol(I2) ⊆ Sol(I1), yet any
  // superset of P1(a) that supplies S2(a) creates an R1j-requirement
  // outside Sol(I2) — I1 itself must be swapped for the ~M-equivalent
  // {P2(a)}. A concrete separation of two interior points of the
  // Section 3 spectrum.
  SchemaMapping m = catalog::Thm410();
  FrameworkChecker checker(m, {MakeDomain({"a", "b"}), 2});
  Result<BoundedCheckReport> strict =
      checker.CheckSubsetProperty(EquivKind::kEquality, EquivKind::kSimM);
  ASSERT_TRUE(strict.ok()) << strict.status();
  EXPECT_FALSE(strict->holds);
  Result<BoundedCheckReport> relaxed =
      checker.CheckSubsetProperty(EquivKind::kSimM, EquivKind::kSimM);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_TRUE(relaxed->holds);
}

TEST(FrameworkMixedKindsTest, MixedGeneralizedInverseOnThm48) {
  // An inverse is a (~1,~2)-inverse for every refinement pair
  // (Proposition 3.7) — including the mixed ones.
  SchemaMapping m = catalog::Thm48();
  ReverseMapping rev = catalog::Thm48Inverse(m);
  FrameworkChecker checker(m, {MakeDomain({"a", "b"}), 2});
  for (EquivKind eq1 : {EquivKind::kEquality, EquivKind::kSimM}) {
    for (EquivKind eq2 : {EquivKind::kEquality, EquivKind::kSimM}) {
      Result<BoundedCheckReport> report =
          checker.CheckGeneralizedInverse(rev, eq1, eq2);
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report->holds)
          << EquivKindName(eq1) << "," << EquivKindName(eq2);
    }
  }
}

TEST(SoChaseOptionsTest, StepLimitEnforced) {
  SchemaMapping m = catalog::Decomposition();
  SoMapping so = Skolemize(m);
  Instance i(m.source);
  for (int k = 0; k < 8; ++k) {
    Status status = i.AddFact(
        "P", {Value::MakeConstant("a" + std::to_string(k)),
              Value::MakeConstant("b"), Value::MakeConstant("c")});
    ASSERT_TRUE(status.ok());
  }
  SoChaseOptions options;
  options.max_steps = 3;
  Result<Instance> chased = SoChase(i, so, options);
  EXPECT_FALSE(chased.ok());
  EXPECT_EQ(chased.status().code(), StatusCode::kResourceExhausted);
}

TEST(CompositionBudgetTest, ReverseOracleBudgetEnforced) {
  // A chase with many nulls against a tiny assignment budget.
  SchemaMapping m =
      MustParseMapping("P/1", "Q/2", "P(x) -> exists y: Q(x,y)");
  ReverseMapping rev = MustParseReverseMapping(m, "Q(x,y) -> P(y)");
  Instance i1(m.source);
  for (int k = 0; k < 10; ++k) {
    Status status =
        i1.AddFact("P", {Value::MakeConstant("c" + std::to_string(k))});
    ASSERT_TRUE(status.ok());
  }
  Instance i2(m.source);
  CompositionOptions options;
  options.max_assignments = 16;
  Result<bool> member = InComposition(m, rev, i1, i2, options);
  EXPECT_FALSE(member.ok());
  EXPECT_EQ(member.status().code(), StatusCode::kResourceExhausted);
}

TEST(CompositionBudgetTest, ForwardOracleBudgetEnforced) {
  SchemaMapping m12 =
      MustParseMapping("P/1", "Q/2", "P(x) -> exists y: Q(x,y)");
  SchemaMapping m23 = MustParseMapping("Q/2", "W/1", "Q(x,y) -> W(y)");
  Instance i(m12.source);
  for (int k = 0; k < 10; ++k) {
    Status status =
        i.AddFact("P", {Value::MakeConstant("c" + std::to_string(k))});
    ASSERT_TRUE(status.ok());
  }
  Instance k_inst(m23.target);
  CompositionOptions options;
  options.max_assignments = 16;
  Result<bool> member =
      InForwardComposition(m12, m23, i, k_inst, options);
  EXPECT_FALSE(member.ok());
  EXPECT_EQ(member.status().code(), StatusCode::kResourceExhausted);
}

TEST(ChaseStepLimitTest, StandardChaseBudgetEnforced) {
  SchemaMapping m = catalog::Prop312();
  Instance dense(m.source);
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      Status status = dense.AddFact(
          "E", {Value::MakeConstant("v" + std::to_string(a)),
                Value::MakeConstant("v" + std::to_string(b))});
      ASSERT_TRUE(status.ok());
    }
  }
  ChaseOptions options;
  options.max_steps = 10;
  Result<Instance> chased = Chase(dense, m, options);
  EXPECT_FALSE(chased.ok());
  EXPECT_EQ(chased.status().code(), StatusCode::kResourceExhausted);
}

TEST(SkolemizeDeterminismTest, SameInputSameOutput) {
  SchemaMapping m = catalog::Example45();
  SoMapping a = Skolemize(m);
  SoMapping b = Skolemize(m);
  ASSERT_EQ(a.implications.size(), b.implications.size());
  for (size_t i = 0; i < a.implications.size(); ++i) {
    EXPECT_TRUE(a.implications[i] == b.implications[i]);
  }
}

TEST(ComposeSoDeterminismTest, StableAcrossRuns) {
  SchemaMapping m12 = catalog::Thm48();
  SchemaMapping m23 = MustParseMapping("Q/2", "W/2", "Q(x,y) -> W(x,y)");
  Result<SoMapping> a = ComposeSo(m12, m23);
  Result<SoMapping> b = ComposeSo(m12, m23);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ToString(), b->ToString());
}

}  // namespace
}  // namespace qimap
