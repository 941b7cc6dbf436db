#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "base/budget.h"
#include "base/fault.h"
#include "base/status.h"
#include "chase/chase.h"
#include "dependency/parser.h"
#include "relational/instance.h"

// Unit tests for the qimap::Budget resource governor: each limit trips
// independently and stickily, the fast path charges nothing when no limit
// is set, fault plans parse and fire deterministically, and a tripped
// step limit reports exactly the work performed.

namespace qimap {
namespace {

TEST(BudgetTest, UnlimitedBudgetNeverTrips) {
  Budget budget;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(budget.Tick("test").ok());
    EXPECT_TRUE(budget.ChargeNulls("test").ok());
    EXPECT_TRUE(budget.ChargeMemory("test", 1 << 20).ok());
    EXPECT_TRUE(budget.Check("test").ok());
  }
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.tripped(), BudgetLimit::kNone);
  EXPECT_EQ(budget.steps(), 1000u);
}

TEST(BudgetTest, StepLimitTripsAndDoesNotCountTheRefusedTick) {
  BudgetSpec spec;
  spec.max_steps = 3;
  Budget budget(spec);
  EXPECT_TRUE(budget.Tick("standard chase").ok());
  EXPECT_TRUE(budget.Tick("standard chase").ok());
  EXPECT_TRUE(budget.Tick("standard chase").ok());
  Status fourth = budget.Tick("standard chase");
  ASSERT_FALSE(fourth.ok());
  EXPECT_EQ(fourth.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fourth.message(),
            "standard chase exceeded its step limit (3 steps)");
  // The tripping tick was refused, not performed.
  EXPECT_EQ(budget.steps(), 3u);
  EXPECT_EQ(budget.tripped(), BudgetLimit::kSteps);
}

TEST(BudgetTest, TripIsSticky) {
  BudgetSpec spec;
  spec.max_steps = 1;
  Budget budget(spec);
  EXPECT_TRUE(budget.Tick("t").ok());
  Status first_trip = budget.Tick("t");
  ASSERT_FALSE(first_trip.ok());
  // Every later check — of any kind — reports the original trip.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(budget.Tick("t").message(), first_trip.message());
    EXPECT_EQ(budget.Check("t").message(), first_trip.message());
    EXPECT_EQ(budget.ChargeNulls("t").message(), first_trip.message());
    EXPECT_EQ(budget.ChargeMemory("t", 1).message(), first_trip.message());
  }
  EXPECT_EQ(budget.steps(), 1u);
  EXPECT_EQ(budget.tripped(), BudgetLimit::kSteps);
}

TEST(BudgetTest, DeadlineTripsOnInjectedClock) {
  uint64_t now_us = 0;
  BudgetSpec spec;
  spec.deadline_us = 1000;
  spec.clock = [&now_us] { return now_us; };
  Budget budget(spec);
  EXPECT_TRUE(budget.Check("quasi-inverse").ok());
  now_us = 999;
  EXPECT_TRUE(budget.Check("quasi-inverse").ok());
  now_us = 1001;
  Status late = budget.Check("quasi-inverse");
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(late.message().find("deadline"), std::string::npos);
  EXPECT_EQ(budget.tripped(), BudgetLimit::kDeadline);
  // Sticky even if the clock rolls back (it never should, but the trip
  // must not un-trip).
  now_us = 0;
  EXPECT_FALSE(budget.Check("quasi-inverse").ok());
}

TEST(BudgetTest, MemoryBudgetTripsAfterCharging) {
  BudgetSpec spec;
  spec.max_memory_bytes = 100;
  Budget budget(spec);
  EXPECT_TRUE(budget.ChargeMemory("chase", 60).ok());
  Status over = budget.ChargeMemory("chase", 60);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("memory"), std::string::npos);
  // The charge is recorded (the partial result holds the bytes).
  EXPECT_EQ(budget.memory_bytes(), 120u);
  EXPECT_EQ(budget.tripped(), BudgetLimit::kMemory);
}

TEST(BudgetTest, NullBudgetTripsAfterCharging) {
  BudgetSpec spec;
  spec.max_nulls = 2;
  Budget budget(spec);
  EXPECT_TRUE(budget.ChargeNulls("chase", 2).ok());
  Status over = budget.ChargeNulls("chase", 1);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("null"), std::string::npos);
  EXPECT_EQ(budget.nulls(), 3u);
  EXPECT_EQ(budget.tripped(), BudgetLimit::kNulls);
}

TEST(BudgetTest, CancellationTokenTripsAsCancelled) {
  Cancellation token;
  BudgetSpec spec;
  spec.cancellation = &token;
  Budget budget(spec);
  EXPECT_TRUE(budget.Check("disjunctive chase").ok());
  token.Cancel();
  Status cancelled = budget.Check("disjunctive chase");
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.message(), "disjunctive chase was cancelled");
  EXPECT_EQ(budget.tripped(), BudgetLimit::kCancelled);
  // Sticky across a token reset: the run already wound down.
  token.Reset();
  EXPECT_FALSE(budget.Check("disjunctive chase").ok());
}

TEST(BudgetTest, CancelledStatusCodeName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "CANCELLED");
  Status status = Status::Cancelled("stop");
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
}

TEST(BudgetTest, FaultPlanParsesAndRoundTrips) {
  Result<FaultPlan> alloc = FaultPlan::Parse("alloc:3");
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->site, FaultSite::kAllocCheckpoint);
  EXPECT_EQ(alloc->nth, 3u);
  EXPECT_FALSE(alloc->cancel);
  EXPECT_EQ(alloc->ToString(), "alloc:3");

  Result<FaultPlan> task = FaultPlan::Parse("task:5:cancel");
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->site, FaultSite::kPoolTask);
  EXPECT_EQ(task->nth, 5u);
  EXPECT_TRUE(task->cancel);
  EXPECT_EQ(task->ToString(), "task:5:cancel");

  EXPECT_TRUE(FaultPlan::Parse("batch:1").ok());
  for (const char* bad :
       {"", "alloc", "alloc:", "alloc:0", "alloc:x", "bogus:1",
        "task:5:retry", "alloc:18446744073709551617"}) {
    Result<FaultPlan> parsed = FaultPlan::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_FALSE(FaultPlan{}.active());
  EXPECT_EQ(FaultPlan{}.ToString(), "none");
}

TEST(BudgetTest, AllocFaultTripsOnNthCharge) {
  BudgetSpec spec;
  spec.fault_plan = *FaultPlan::Parse("alloc:2");
  Budget budget(spec);
  EXPECT_TRUE(budget.ChargeMemory("chase", 1).ok());
  Status fault = budget.ChargeMemory("chase", 1);
  ASSERT_FALSE(fault.ok());
  EXPECT_EQ(fault.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(fault.message().find("injected fault"), std::string::npos);
  EXPECT_EQ(budget.tripped(), BudgetLimit::kFault);
}

TEST(BudgetTest, BatchAndTaskFaultSitesCountIndependently) {
  BudgetSpec spec;
  spec.fault_plan = *FaultPlan::Parse("task:3");
  Budget budget(spec);
  // Batch passes never advance the task ordinal.
  EXPECT_TRUE(budget.OnTriggerBatch("chase").ok());
  EXPECT_TRUE(budget.OnTriggerBatch("chase").ok());
  EXPECT_TRUE(budget.OnTriggerBatch("chase").ok());
  EXPECT_TRUE(budget.OnPoolTask("chase").ok());
  EXPECT_TRUE(budget.OnPoolTask("chase").ok());
  EXPECT_FALSE(budget.OnPoolTask("chase").ok());
  EXPECT_EQ(budget.tripped(), BudgetLimit::kFault);
}

TEST(BudgetTest, CancelActionFlipsTheTokenInsteadOfFailing) {
  Cancellation token;
  BudgetSpec spec;
  spec.cancellation = &token;
  spec.fault_plan = *FaultPlan::Parse("task:1:cancel");
  Budget budget(spec);
  // The faulting pass itself succeeds; the run winds down at the next
  // cooperative check, exactly like an external Cancel().
  EXPECT_TRUE(token.cancelled() == false);
  Status at_fault = budget.OnPoolTask("disjunctive chase");
  EXPECT_TRUE(at_fault.ok());
  EXPECT_TRUE(token.cancelled());
  Status next = budget.Check("disjunctive chase");
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.code(), StatusCode::kCancelled);
  EXPECT_EQ(budget.tripped(), BudgetLimit::kCancelled);
}

TEST(BudgetTest, UsageStringReportsCounts) {
  BudgetSpec spec;
  Budget budget(spec);
  ASSERT_TRUE(budget.Tick("t").ok());
  ASSERT_TRUE(budget.ChargeNulls("t", 2).ok());
  ASSERT_TRUE(budget.ChargeMemory("t", 128).ok());
  std::string usage = budget.UsageString();
  EXPECT_NE(usage.find("steps=1"), std::string::npos) << usage;
  EXPECT_NE(usage.find("nulls=2"), std::string::npos) << usage;
  EXPECT_NE(usage.find("bytes=128"), std::string::npos) << usage;
}

TEST(BudgetTest, StepLimitHintRendersWithExactlyOneSeparator) {
  // Callers spell the hint with and without a leading space; both must
  // render with exactly one separator.
  Budget with_space(BudgetSpec::StepsOnly(1));
  Budget without_space(BudgetSpec::StepsOnly(1));
  ASSERT_TRUE(with_space.Tick("x", " hint").ok());
  ASSERT_TRUE(without_space.Tick("x", "hint").ok());
  Status a = with_space.Tick("x", " hint");
  Status b = without_space.Tick("x", "hint");
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(a.message(), b.message());
  EXPECT_EQ(a.message(), "x exceeded its step limit (1 steps) hint");
}

// End-to-end: a governed chase returns ResourceExhausted, flags the run
// partial, and hands back the instance built so far.
TEST(BudgetChaseTest, ChaseReturnsPartialResultOnNullBudgetTrip) {
  Result<SchemaMapping> m =
      ParseMapping("P/1", "Q/2", "P(x) -> exists y: Q(x,y)");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  Result<Instance> source = ParseInstance(m->source, "P(a), P(b), P(c)");
  ASSERT_TRUE(source.ok()) << source.status().ToString();

  BudgetSpec spec;
  spec.max_nulls = 1;
  Budget budget(spec);
  ChaseOptions options;
  options.budget = &budget;
  Instance partial(m->target);
  options.partial_out = &partial;
  ChaseStats stats;

  Result<Instance> chased = Chase(*source, *m, options, &stats);
  ASSERT_FALSE(chased.ok());
  EXPECT_EQ(chased.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(stats.partial);
  EXPECT_EQ(budget.tripped(), BudgetLimit::kNulls);
  // The partial instance keeps the work done before the trip.
  EXPECT_GE(partial.NumFacts(), 1u);
  EXPECT_LT(partial.NumFacts(), 3u);

  // Lifting the limit makes the same chase succeed.
  ChaseOptions unlimited;
  Result<Instance> full = Chase(*source, *m, unlimited);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->NumFacts(), 3u);
}

// budget.h promises thread-safe, first-tripper-wins charging. Four client
// threads chase under one shared step budget that trips partway: each run
// returns the full chase or a flagged partial one, and every step the
// budget admitted is counted by exactly one run.
TEST(BudgetChaseTest, ClientThreadsShareOneStepBudget) {
  SchemaMapping m =
      MustParseMapping("P/3", "Q/2, R/2", "P(x,y,z) -> Q(x,y) & R(y,z)");
  std::string facts;
  for (int k = 0; k < 10; ++k) {
    if (k > 0) facts += ", ";
    facts += "P(a" + std::to_string(k) + ",b,c" + std::to_string(k) + ")";
  }
  Instance source = MustParseInstance(m.source, facts);
  const std::string full = MustChase(source, m).ToString();

  // Ten steps per run, forty in all: at most two runs can finish.
  constexpr int kThreads = 4;
  constexpr size_t kMaxSteps = 25;
  Budget budget(BudgetSpec::StepsOnly(kMaxSteps));
  std::vector<ChaseStats> stats(kThreads);
  std::vector<Status> statuses(kThreads);
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ChaseOptions options;
      options.budget = &budget;
      Result<Instance> chased = Chase(source, m, options, &stats[t]);
      statuses[t] = chased.status();
      if (chased.ok()) results[t] = chased->ToString();
    });
  }
  for (std::thread& thread : threads) thread.join();

  size_t step_sum = 0;
  size_t refused = 0;
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    step_sum += stats[t].steps;
    EXPECT_EQ(stats[t].steps,
              stats[t].triggers_fired + stats[t].satisfaction_hits);
    if (statuses[t].ok()) {
      EXPECT_EQ(results[t], full);
      EXPECT_EQ(stats[t].steps, 10u);
      EXPECT_FALSE(stats[t].partial);
    } else {
      ++refused;
      EXPECT_EQ(statuses[t].code(), StatusCode::kResourceExhausted);
      EXPECT_TRUE(stats[t].partial);
    }
  }
  EXPECT_GE(refused, 2u);
  EXPECT_EQ(budget.tripped(), BudgetLimit::kSteps);
  EXPECT_EQ(budget.steps(), kMaxSteps);
  EXPECT_EQ(step_sum, budget.steps());
}

}  // namespace
}  // namespace qimap
