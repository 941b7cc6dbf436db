#include <gtest/gtest.h>

#include <string>

#include "base/budget.h"
#include "core/containment.h"
#include "dependency/parser.h"
#include "relational/instance.h"

// Unit tests for the mapping-containment oracle (core/containment.h):
// Sigma is contained in Sigma' iff chasing the frozen canonical instance
// of each Sigma'-premise with Sigma satisfies the Sigma'-conclusion. The
// oracle must agree with the paper's Figure 1 reading, report syntactic
// hits without chasing, produce a ground counterexample on violation, and
// degrade to a flagged partial report under a budget.

namespace qimap {
namespace {

// Figure 1's mapping: one source relation projected two ways.
SchemaMapping Figure1() {
  return MustParseMapping("P/3", "Q/2, R/2",
                          "P(x,y,z) -> Q(x,y) & R(y,z)");
}

// Weakening of Figure 1: the R-conjunct dropped.
SchemaMapping Figure1QOnly() {
  return MustParseMapping("P/3", "Q/2, R/2", "P(x,y,z) -> Q(x,y)");
}

TEST(ContainmentTest, WeakenedMappingContainsOriginal) {
  // Sigma ⊆ Sigma' when Sigma' asks for strictly less.
  Result<ContainmentReport> report =
      CheckContainment(Figure1(), Figure1QOnly());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->holds);
  EXPECT_EQ(report->tgds_checked, 1u);
  EXPECT_EQ(report->chases, 1u);
  EXPECT_FALSE(report->partial);
  EXPECT_FALSE(report->counterexample.has_value());
  EXPECT_NE(report->Summary().find("contained"), std::string::npos);
}

TEST(ContainmentTest, OriginalDoesNotContainWeakenedMapping) {
  Result<ContainmentReport> report =
      CheckContainment(Figure1QOnly(), Figure1());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->holds);
  ASSERT_EQ(report->verdicts.size(), 1u);
  EXPECT_FALSE(report->verdicts[0].implied);
  EXPECT_NE(report->witness.find("R(y,z)"), std::string::npos)
      << report->witness;
  EXPECT_NE(report->Summary().find("NOT contained"), std::string::npos);
}

TEST(ContainmentTest, CounterexampleIsGroundAndFrozen) {
  Result<ContainmentReport> report =
      CheckContainment(Figure1QOnly(), Figure1());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->counterexample.has_value());
  // The canonical premise instance is ground over the frozen constants,
  // so the verdict is constructive: this exact source instance violates
  // the conclusion dependency.
  EXPECT_TRUE(report->counterexample->IsGround());
  std::string rendered = report->counterexample->ToString();
  EXPECT_NE(rendered.find("#f1"), std::string::npos) << rendered;
  ASSERT_TRUE(report->counterexample_chase.has_value());
  // Its Sigma-chase produced a Q-fact but no R-fact to map the rhs into.
  std::string chased = report->counterexample_chase->ToString();
  EXPECT_NE(chased.find("Q("), std::string::npos) << chased;
  EXPECT_EQ(chased.find("R("), std::string::npos) << chased;
}

TEST(ContainmentTest, EveryMappingContainsItselfSyntactically) {
  SchemaMapping m = Figure1();
  Result<ContainmentReport> report = CheckContainment(m, m);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->holds);
  EXPECT_EQ(report->syntactic_hits, 1u);
  EXPECT_EQ(report->chases, 0u);  // textual membership short-circuits
  ASSERT_EQ(report->verdicts.size(), 1u);
  EXPECT_TRUE(report->verdicts[0].syntactic);
}

TEST(ContainmentTest, SemanticImplicationNeedsNoSyntacticMatch) {
  // Renamed variables defeat the textual fast path but not the chase.
  SchemaMapping renamed =
      MustParseMapping("P/3", "Q/2, R/2", "P(a,b,c) -> Q(a,b) & R(b,c)");
  Result<ContainmentReport> report =
      CheckContainment(Figure1(), renamed);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->holds);
  EXPECT_EQ(report->syntactic_hits, 0u);
  EXPECT_EQ(report->chases, 1u);
}

TEST(ContainmentTest, ExistentialConclusionIsImplied) {
  // Sigma produces Q(x,y); Sigma' only asks that *some* second component
  // exist. The homomorphism check must leave the existential free.
  SchemaMapping sub = MustParseMapping("P/2", "Q/2", "P(x,y) -> Q(x,y)");
  SchemaMapping super =
      MustParseMapping("P/2", "Q/2", "P(x,y) -> exists z: Q(x,z)");
  Result<bool> contained = MappingContained(sub, super);
  ASSERT_TRUE(contained.ok()) << contained.status().ToString();
  EXPECT_TRUE(*contained);
  // The reverse direction is a genuine strengthening: Q(x,z) for a fresh
  // z does not yield Q(x,y) for the given y.
  Result<bool> reverse = MappingContained(super, sub);
  ASSERT_TRUE(reverse.ok()) << reverse.status().ToString();
  EXPECT_FALSE(*reverse);
}

TEST(ContainmentTest, MultiTgdVerdictListIsComplete) {
  SchemaMapping sub = MustParseMapping("P/2, S/1", "Q/2, T/1",
                                       "P(x,y) -> Q(x,y)");
  SchemaMapping super = MustParseMapping(
      "P/2, S/1", "Q/2, T/1", "P(x,y) -> Q(x,y); S(x) -> T(x)");
  Result<ContainmentReport> report = CheckContainment(sub, super);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->holds);
  // The oracle keeps judging after the first violation: both conclusion
  // dependencies get a verdict.
  ASSERT_EQ(report->verdicts.size(), 2u);
  EXPECT_TRUE(report->verdicts[0].implied);
  EXPECT_FALSE(report->verdicts[1].implied);
  EXPECT_NE(report->witness.find("T(x)"), std::string::npos)
      << report->witness;
}

TEST(ContainmentTest, MismatchedSchemasAreAPreconditionFailure) {
  SchemaMapping a = MustParseMapping("P/2", "Q/2", "P(x,y) -> Q(x,y)");
  SchemaMapping b = MustParseMapping("P/3", "Q/2", "P(x,y,z) -> Q(x,y)");
  Result<ContainmentReport> report = CheckContainment(a, b);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ContainmentTest, EqualSchemasByValueAreAccepted) {
  // Distinct Schema objects with identical declarations must compare
  // compatible: corpus cases reparse their schemas per file.
  SchemaMapping a = Figure1();
  SchemaMapping b = Figure1QOnly();
  ASSERT_NE(a.source.get(), b.source.get());
  Result<ContainmentReport> report = CheckContainment(a, b);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->holds);
}

TEST(ContainmentTest, BudgetTripYieldsFlaggedPartialReport) {
  BudgetSpec spec;
  spec.max_steps = 1;  // trips before the oracle can finish
  Budget budget(spec);
  ContainmentOptions options;
  options.budget = &budget;
  ContainmentReport partial;
  options.partial_out = &partial;
  // Renamed variables force the chase path; the one-step budget trips
  // inside it.
  SchemaMapping renamed =
      MustParseMapping("P/3", "Q/2, R/2", "P(a,b,c) -> Q(a,b) & R(b,c)");
  Result<ContainmentReport> report =
      CheckContainment(Figure1(), renamed, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(partial.partial);
}

}  // namespace
}  // namespace qimap
