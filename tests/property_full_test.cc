// Property sweeps for full and GAV mappings: Theorem 4.6 (no Constant
// needed), conditional quasi-invertibility, and saturation invariants.

#include <gtest/gtest.h>

#include "base/rng.h"
#include "chase/chase.h"
#include "core/framework.h"
#include "core/quasi_inverse.h"
#include "core/solution_space.h"
#include "relational/homomorphism.h"
#include "relational/instance_core.h"
#include "relational/instance_enum.h"
#include "workload/random_mappings.h"
#include "random_testing.h"

namespace qimap {
namespace {

class FullSeededTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FullSeededTest,
                         ::testing::Range<uint64_t>(1, 13));

// Theorem 4.6: for quasi-invertible mappings specified by full s-t tgds,
// the Constant-free QuasiInverse output is still a quasi-inverse.
// Quasi-invertibility is not guaranteed for random full mappings
// (Proposition 3.12), so the property is conditional on the bounded
// subset check.
TEST_P(FullSeededTest, ConstantFreeOutputForFullMappings) {
  Rng rng(GetParam() * 48271);
  RandomMappingConfig config = SmallPairConfig();
  config.max_lhs_atoms = 2;
  config.max_existential_vars = 0;  // full
  SchemaMapping m = RandomMapping(&rng, config);
  ASSERT_TRUE(m.IsFull());
  FrameworkChecker checker(m, {MakeDomain({"a", "b"}), 2});
  Result<BoundedCheckReport> subset =
      checker.CheckSubsetProperty(EquivKind::kSimM, EquivKind::kSimM);
  ASSERT_TRUE(subset.ok()) << subset.status();
  if (!subset->holds) {
    // Not quasi-invertible within the bounded space: Theorem 4.1 makes
    // no promise; just make sure the algorithm doesn't crash.
    Result<ReverseMapping> rev = QuasiInverse(m);
    EXPECT_TRUE(rev.ok()) << rev.status();
    return;
  }
  QuasiInverseOptions options;
  options.include_constant_predicates = false;
  Result<ReverseMapping> rev = QuasiInverse(m, options);
  ASSERT_TRUE(rev.ok()) << m.ToString();
  EXPECT_FALSE(rev->HasConstants());
  Result<BoundedCheckReport> verdict = checker.CheckGeneralizedInverse(
      *rev, EquivKind::kSimM, EquivKind::kSimM);
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_TRUE(verdict->holds) << m.ToString() << "\n" << rev->ToString();
}

// For full mappings the chase introduces no nulls, so universal solutions
// are ground and are their own cores.
TEST_P(FullSeededTest, FullChaseIsGroundAndCore) {
  Rng rng(GetParam() * 16127);
  SchemaMapping m = RandomFullMapping(&rng, 3);
  Instance i = RandomGroundInstance(m.source, MakeDomain({"a", "b", "c"}),
                                    4, &rng);
  Result<Instance> u = Chase(i, m);
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE(u->IsGround());
  EXPECT_TRUE(IsCore(*u));
}

// The core of any universal solution is still a universal solution
// (hom-equivalent, still a solution).
TEST_P(FullSeededTest, CoreOfChaseRemainsUniversal) {
  Rng rng(GetParam() * 32003);
  SchemaMapping m = RandomLavMapping(&rng, 3);
  Instance i = RandomGroundInstance(m.source, MakeDomain({"a", "b"}), 3,
                                    &rng);
  Result<Instance> u = Chase(i, m);
  ASSERT_TRUE(u.ok());
  Instance core = ComputeCore(*u);
  EXPECT_TRUE(IsSolution(m, i, core)) << m.ToString();
  EXPECT_TRUE(HomomorphicallyEquivalent(core, *u));
}

// Saturation invariant (LAV): Umax is ~M-equivalent to its seed and
// contains every equivalent bounded instance.
TEST_P(FullSeededTest, SaturationIsEquivalentMaximum) {
  Rng rng(GetParam() * 127873);
  SchemaMapping m = RandomLavMapping(&rng, 2);
  FrameworkChecker checker(m, {MakeDomain({"a", "b"}), 2});
  Instance seed = RandomGroundInstance(m.source, MakeDomain({"a", "b"}), 2,
                                       &rng);
  Result<Instance> umax = checker.SaturateClass(seed);
  ASSERT_TRUE(umax.ok());
  EXPECT_TRUE(MustSimEquivalent(m, *umax, seed)) << m.ToString();
  EXPECT_TRUE(seed.IsSubsetOf(*umax));
  // Every ~M-equivalent instance in the space is below Umax.
  EnumerationSpace space{m.source, MakeDomain({"a", "b"}), 3};
  ForEachInstance(space, [&](const Instance& other) {
    if (MustSimEquivalent(m, other, seed)) {
      EXPECT_TRUE(other.IsSubsetOf(*umax))
          << m.ToString() << "\nother: " << other.ToString()
          << "\numax: " << umax->ToString();
    }
    return true;
  });
}

}  // namespace
}  // namespace qimap
