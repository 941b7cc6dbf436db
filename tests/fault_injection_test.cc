#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/fault.h"
#include "base/rng.h"
#include "base/status.h"
#include "chase/chase.h"
#include "chase/disjunctive_chase.h"
#include "chase/target_chase.h"
#include "core/inverse.h"
#include "core/lav_quasi_inverse.h"
#include "core/mingen.h"
#include "core/quasi_inverse.h"
#include "dependency/parser.h"
#include "dependency/schema_mapping.h"
#include "relational/instance.h"
#include "relational/instance_enum.h"
#include "workload/paper_catalog.h"
#include "workload/random_mappings.h"
#include "random_testing.h"

// Seeded exhaustion soak: 100 randomized mappings run under tight,
// rotating budgets and deterministic fault plans. Every governed failure
// must be a clean
// structured status (ResourceExhausted, or Cancelled for the token), flag
// the run partial, and hand back a best-effort prefix; rerunning the same
// case with the limits lifted must be byte-identical to the ungoverned
// reference — attaching a budget may stop the work early but must never
// change it.
//
// The two soaks keep "Parallel" in their names so their test ids stay
// stable; both run on the chase's one thread.

namespace qimap {
namespace {

// One tight budget per seed, rotating through every limit kind and fault
// site. `fake_now` backs the injected deadline clock.
BudgetSpec TightSpec(uint64_t seed, Cancellation* token,
                     uint64_t* fake_now) {
  BudgetSpec spec;
  spec.cancellation = token;
  switch (seed % 7) {
    case 0:
      spec.max_steps = 1 + seed % 3;
      break;
    case 1:
      spec.max_nulls = 1;
      break;
    case 2:
      spec.max_memory_bytes = 256;
      break;
    case 3:
      spec.deadline_us = 1000;
      spec.clock = [fake_now] { return *fake_now += 300; };
      break;
    case 4:
      spec.fault_plan = *FaultPlan::Parse(
          "alloc:" + std::to_string(1 + seed % 4));
      break;
    case 5:
      spec.fault_plan = *FaultPlan::Parse(
          "batch:" + std::to_string(1 + seed % 2));
      break;
    default:
      spec.fault_plan = *FaultPlan::Parse(
          "task:" + std::to_string(1 + seed % 4) +
          (seed % 2 == 0 ? ":cancel" : ""));
      break;
  }
  return spec;
}

// A generous version of the same spec shape: every limit present but far
// above what the tiny cases need, no fault plan. The lifted rerun proves
// the governed code path itself (charging, checkpoints, per-dependency
// check-ins) does not perturb the result.
BudgetSpec LiftedSpec(Cancellation* token) {
  BudgetSpec spec;
  spec.cancellation = token;
  spec.max_steps = 1u << 20;
  spec.max_nulls = 1u << 20;
  spec.max_memory_bytes = 1u << 30;
  return spec;
}

void ExpectCleanBudgetFailure(const Status& status, const Budget& budget) {
  EXPECT_TRUE(status.code() == StatusCode::kResourceExhausted ||
              status.code() == StatusCode::kCancelled)
      << status.ToString();
  EXPECT_TRUE(budget.exhausted());
  EXPECT_NE(budget.tripped(), BudgetLimit::kNone);
  EXPECT_FALSE(status.message().empty());
}

TEST(FaultInjectionTest, GovernedChaseSoakAcrossThreadsParallel) {
  RandomMappingConfig config = JoinedBodyConfig();
  config.max_rhs_atoms = 3;
  config.max_existential_vars = 2;
  config.num_tgds = 4;
  std::vector<Value> domain = MakeDomain({"a", "b", "c", "d"});

  for (uint64_t seed = 1; seed <= 70; ++seed) {
    Rng rng(seed * 7919 + 101);
    SchemaMapping m = RandomMapping(&rng, config);
    Instance source =
        RandomGroundInstance(m.source, domain, /*num_facts=*/6, &rng);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " source: " + source.ToString());

    Result<Instance> reference = Chase(source, m);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    Cancellation token;
    uint64_t fake_now = 0;
    Budget tight(TightSpec(seed, &token, &fake_now));
    ChaseOptions governed;
    governed.budget = &tight;
    Instance partial(m.target);
    governed.partial_out = &partial;
    ChaseStats stats;
    Result<Instance> run = Chase(source, m, governed, &stats);
    if (run.ok()) {
      // The tight budget happened to suffice; the result must still be
      // the reference, bit for bit.
      EXPECT_EQ(run->ToString(), reference->ToString());
    } else {
      ExpectCleanBudgetFailure(run.status(), tight);
      EXPECT_TRUE(stats.partial);
      EXPECT_LE(partial.NumFacts(), reference->NumFacts());
    }

    // Differential oracle: lifting the limits reproduces the ungoverned
    // chase byte for byte.
    Cancellation lifted_token;
    Budget lifted(LiftedSpec(&lifted_token));
    ChaseOptions rerun_options;
    rerun_options.budget = &lifted;
    Result<Instance> rerun = Chase(source, m, rerun_options);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->ToString(), reference->ToString());
    EXPECT_FALSE(lifted.exhausted());
  }
}

TEST(FaultInjectionTest, GovernedDisjunctiveChaseSoakParallel) {
  std::vector<Value> domain = MakeDomain({"a", "b", "c"});
  RandomMappingConfig config = SmallPairConfig();
  size_t governed_trips = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 104729 + 13);
    SchemaMapping m = RandomMapping(&rng, config);
    Instance source =
        RandomGroundInstance(m.source, domain, /*num_facts=*/3, &rng);
    Result<ReverseMapping> reverse = QuasiInverse(m);
    ASSERT_TRUE(reverse.ok()) << reverse.status().ToString();
    Result<Instance> target = Chase(source, m);
    ASSERT_TRUE(target.ok()) << target.status().ToString();
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " target: " + target->ToString());

    Result<std::vector<Instance>> reference =
        DisjunctiveChase(*target, *reverse);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    Cancellation token;
    uint64_t fake_now = 0;
    Budget tight(TightSpec(seed, &token, &fake_now));
    DisjunctiveChaseOptions governed;
    governed.budget = &tight;
    std::vector<Instance> partial;
    governed.partial_out = &partial;
    DisjunctiveChaseStats stats;
    Result<std::vector<Instance>> run =
        DisjunctiveChase(*target, *reverse, governed, &stats);
    if (run.ok()) {
      ASSERT_EQ(run->size(), reference->size());
      for (size_t i = 0; i < run->size(); ++i) {
        EXPECT_EQ((*run)[i].ToString(), (*reference)[i].ToString());
      }
    } else {
      ExpectCleanBudgetFailure(run.status(), tight);
      EXPECT_TRUE(stats.partial);
      EXPECT_LE(partial.size(), reference->size());
      ++governed_trips;
    }

    DisjunctiveChaseOptions rerun_options;
    Cancellation lifted_token;
    Budget lifted(LiftedSpec(&lifted_token));
    rerun_options.budget = &lifted;
    Result<std::vector<Instance>> rerun =
        DisjunctiveChase(*target, *reverse, rerun_options);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    ASSERT_EQ(rerun->size(), reference->size());
    for (size_t i = 0; i < rerun->size(); ++i) {
      EXPECT_EQ((*rerun)[i].ToString(), (*reference)[i].ToString());
    }
  }
  // The rotation must actually exercise the exhaustion path, not just
  // the happy path with a budget attached.
  EXPECT_GT(governed_trips, 0u);
}

// Every remaining governed pipeline — the target-constraint chase,
// MinGen, LavQuasiInverse, and algorithm Inverse — against every limit
// kind. The fixtures are sized so each limit genuinely trips: every
// pipeline ticks more than once (steps), mints at least two nulls
// (nulls), charges memory for every derived atom (memory), and consults
// the injected, ever-advancing clock repeatedly (deadline). A lifted
// rerun must then reproduce the ungoverned reference byte for byte.
TEST(FaultInjectionTest, GovernedPipelinesTripUnderEveryLimitKind) {
  // Target chase: an existential st-tgd (one null per source fact) plus
  // transitive closure in the target (a multi-step fixpoint).
  SchemaMapping tc = MustParseMapping(
      "E0/2", "E/2", "E0(x,y) -> exists u: E(x,u) & E(u,y)");
  TargetConstraints closure =
      MustParseTargetConstraints(*tc.target, "E(x,y) & E(y,z) -> E(x,z)");
  Instance chain = MustParseInstance(tc.source, "E0(a,b), E0(b,c), E0(c,d)");
  Result<TargetChaseResult> tc_reference =
      ChaseWithTargetConstraints(chain, tc, closure);
  ASSERT_TRUE(tc_reference.ok()) << tc_reference.status().ToString();
  ASSERT_FALSE(tc_reference->failed);

  // MinGen + LavQuasiInverse: a LAV mapping whose two existential tgds
  // mint a null in each prime chase; MinGen charges a null for each
  // variable of every tgd copy it renames apart.
  SchemaMapping lav = MustParseMapping(
      "P/2, S/1", "Q/2, R/2",
      "P(x,y) -> exists z: Q(x,z) & R(z,y); S(u) -> exists w: Q(u,w)");
  const Tgd& lav_tgd = lav.tgds[0];
  Result<std::vector<Conjunction>> mg_reference =
      MinGen(lav, lav_tgd.rhs, lav_tgd.FrontierVariables());
  ASSERT_TRUE(mg_reference.ok()) << mg_reference.status().ToString();
  Result<ReverseMapping> lqi_reference = LavQuasiInverse(lav);
  ASSERT_TRUE(lqi_reference.ok()) << lqi_reference.status().ToString();

  // Inverse: the paper's Example 5.4 (constant propagation holds).
  SchemaMapping inv = catalog::Example54();
  Result<ReverseMapping> inv_reference = InverseAlgorithm(inv);
  ASSERT_TRUE(inv_reference.ok()) << inv_reference.status().ToString();

  const BudgetLimit kLimits[] = {BudgetLimit::kSteps, BudgetLimit::kNulls,
                                 BudgetLimit::kMemory, BudgetLimit::kDeadline};
  for (BudgetLimit limit : kLimits) {
    SCOPED_TRACE(std::string("limit=") + BudgetLimitName(limit));
    std::atomic<uint64_t> fake_now{0};
    auto tight_spec = [&] {
      BudgetSpec spec;
      switch (limit) {
        case BudgetLimit::kSteps:
          spec.max_steps = 1;
          break;
        case BudgetLimit::kNulls:
          spec.max_nulls = 1;
          break;
        case BudgetLimit::kMemory:
          spec.max_memory_bytes = 1;
          break;
        default:
          spec.deadline_us = 1000;
          spec.clock = [&fake_now] {
            return fake_now.fetch_add(300, std::memory_order_relaxed) + 300;
          };
          break;
      }
      return spec;
    };

    {
      SCOPED_TRACE("pipeline=target chase");
      Budget tight(tight_spec());
      TargetChaseOptions options;
      options.budget = &tight;
      Instance partial(tc.target);
      options.partial_out = &partial;
      Result<TargetChaseResult> run =
          ChaseWithTargetConstraints(chain, tc, closure, options);
      ASSERT_FALSE(run.ok());
      ExpectCleanBudgetFailure(run.status(), tight);
      EXPECT_EQ(tight.tripped(), limit);
      EXPECT_LE(partial.NumFacts(), tc_reference->solution.NumFacts());
    }
    {
      SCOPED_TRACE("pipeline=MinGen");
      Budget tight(tight_spec());
      MinGenOptions options;
      options.budget = &tight;
      std::vector<Conjunction> partial;
      options.partial_out = &partial;
      Result<std::vector<Conjunction>> run =
          MinGen(lav, lav_tgd.rhs, lav_tgd.FrontierVariables(), options);
      ASSERT_FALSE(run.ok());
      ExpectCleanBudgetFailure(run.status(), tight);
      EXPECT_EQ(tight.tripped(), limit);
    }
    {
      SCOPED_TRACE("pipeline=LavQuasiInverse");
      Budget tight(tight_spec());
      LavQuasiInverseOptions options;
      options.budget = &tight;
      ReverseMapping partial;
      options.partial_out = &partial;
      Result<ReverseMapping> run = LavQuasiInverse(lav, options);
      ASSERT_FALSE(run.ok());
      ExpectCleanBudgetFailure(run.status(), tight);
      EXPECT_EQ(tight.tripped(), limit);
      EXPECT_TRUE(partial.partial);
      EXPECT_LE(partial.deps.size(), lqi_reference->deps.size());
    }
    {
      SCOPED_TRACE("pipeline=Inverse");
      Budget tight(tight_spec());
      InverseOptions options;
      options.budget = &tight;
      ReverseMapping partial;
      options.partial_out = &partial;
      Result<ReverseMapping> run = InverseAlgorithm(inv, options);
      ASSERT_FALSE(run.ok());
      ExpectCleanBudgetFailure(run.status(), tight);
      EXPECT_EQ(tight.tripped(), limit);
      EXPECT_TRUE(partial.partial);
      EXPECT_LE(partial.deps.size(), inv_reference->deps.size());
    }
  }

  // Lifted reruns reproduce every reference.
  Cancellation token;
  Budget lifted(LiftedSpec(&token));
  {
    TargetChaseOptions options;
    options.budget = &lifted;
    Result<TargetChaseResult> rerun =
        ChaseWithTargetConstraints(chain, tc, closure, options);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->solution.ToString(), tc_reference->solution.ToString());
  }
  {
    MinGenOptions options;
    options.budget = &lifted;
    Result<std::vector<Conjunction>> rerun =
        MinGen(lav, lav_tgd.rhs, lav_tgd.FrontierVariables(), options);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->size(), mg_reference->size());
  }
  {
    LavQuasiInverseOptions options;
    options.budget = &lifted;
    Result<ReverseMapping> rerun = LavQuasiInverse(lav, options);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->ToString(), lqi_reference->ToString());
  }
  {
    InverseOptions options;
    options.budget = &lifted;
    Result<ReverseMapping> rerun = InverseAlgorithm(inv, options);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->ToString(), inv_reference->ToString());
  }
  EXPECT_FALSE(lifted.exhausted());
}

TEST(FaultInjectionTest, GovernedQuasiInverseLiftedRerunMatches) {
  RandomMappingConfig config = SmallPairConfig();
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 31 + 7);
    SchemaMapping m = RandomMapping(&rng, config);
    SCOPED_TRACE("seed=" + std::to_string(seed));

    Result<ReverseMapping> reference = QuasiInverse(m);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    // A one-step shared budget cannot cover sigma-star traversal plus the
    // MinGen search: the pipeline must fail structurally and still hand
    // back whatever prefix it derived.
    BudgetSpec tight_spec;
    tight_spec.max_steps = 1;
    Budget tight(tight_spec);
    QuasiInverseOptions governed;
    governed.budget = &tight;
    ReverseMapping partial;
    governed.partial_out = &partial;
    Result<ReverseMapping> run = QuasiInverse(m, governed);
    ASSERT_FALSE(run.ok());
    ExpectCleanBudgetFailure(run.status(), tight);
    EXPECT_TRUE(partial.partial);
    EXPECT_LE(partial.deps.size(), reference->deps.size());

    Cancellation lifted_token;
    Budget lifted(LiftedSpec(&lifted_token));
    QuasiInverseOptions rerun_options;
    rerun_options.budget = &lifted;
    Result<ReverseMapping> rerun = QuasiInverse(m, rerun_options);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->ToString(), reference->ToString());
    EXPECT_FALSE(lifted.exhausted());
  }
}

}  // namespace
}  // namespace qimap
