#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/budget.h"
#include "chase/chase.h"
#include "chase/disjunctive_chase.h"
#include "chase/target_chase.h"
#include "core/containment.h"
#include "core/inverse.h"
#include "core/lav_quasi_inverse.h"
#include "core/mingen.h"
#include "core/quasi_inverse.h"
#include "dependency/egd.h"
#include "dependency/parser.h"
#include "obs/journal.h"
#include "obs/pipeline_run.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "relational/instance.h"

// Tests for the per-call observability scope (obs/pipeline_run.h) at all
// eight pipeline entry points: one trace span and one final heartbeat per
// call, early-error returns included, a journal run that a budget trip
// ends with exactly one `budget` event, and final heartbeats that report
// what the run did.

namespace qimap {
namespace {

// The Figure 1 mapping of the paper.
SchemaMapping Figure1() {
  return MustParseMapping("P/3", "Q/2, R/2", "P(x,y,z) -> Q(x,y) & R(y,z)");
}

// What one pipeline call left behind in the three observed streams.
struct Footprint {
  size_t spans = 0;             ///< trace spans under the call's span name
  size_t final_heartbeats = 0;  ///< final heartbeats under its pipeline
  std::set<uint64_t> runs;      ///< journal runs under its pipeline
  std::vector<obs::JournalEventKind> events;  ///< their events, in order
};

class PipelineRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Journal::Clear();
    obs::Journal::Enable();
    obs::Trace::Clear();
    obs::Trace::Enable();
    obs::Progress::Reset();
    obs::ProgressConfig config;
    config.interval = 1;
    auto sink = snapshots_;
    config.sink = [sink](const obs::ProgressSnapshot& snap) {
      sink->push_back(snap);
    };
    obs::Progress::Configure(config);
    obs::Progress::Enable();
  }

  void TearDown() override {
    obs::Journal::Disable();
    obs::Journal::Clear();
    obs::Trace::Disable();
    obs::Trace::Clear();
    obs::Progress::Reset();
  }

  // Runs `call` with `budget` and collects what it left under `span` and
  // `pipeline`.
  Footprint Observe(const char* span, const char* pipeline,
                    const std::function<void(Budget*)>& call,
                    Budget* budget) {
    obs::Journal::Clear();
    obs::Trace::Clear();
    snapshots_->clear();
    call(budget);
    Footprint out;
    for (const obs::TraceEvent& event : obs::Trace::Events()) {
      if (event.name == span) ++out.spans;
    }
    for (const obs::ProgressSnapshot& snap : *snapshots_) {
      if (snap.pipeline == pipeline && snap.is_final) ++out.final_heartbeats;
    }
    for (const obs::JournalEvent& event : obs::Journal::Events()) {
      if (event.pipeline != pipeline) continue;
      out.runs.insert(event.run);
      out.events.push_back(event.kind);
    }
    return out;
  }

  // One unbudgeted call and one under a one-step shared budget. Each
  // yields one span and one final heartbeat; the budgeted call's journal
  // run ends with its only `budget` event.
  void ExpectOneScopePerCall(const char* span, const char* pipeline,
                             const std::function<void(Budget*)>& call) {
    Footprint free = Observe(span, pipeline, call, nullptr);
    EXPECT_EQ(free.spans, 1u) << span;
    EXPECT_EQ(free.final_heartbeats, 1u) << pipeline;
    EXPECT_LE(free.runs.size(), 1u) << pipeline;

    Budget budget(BudgetSpec::StepsOnly(1));
    Footprint governed = Observe(span, pipeline, call, &budget);
    EXPECT_TRUE(budget.exhausted()) << pipeline;
    EXPECT_EQ(governed.spans, 1u) << span;
    EXPECT_EQ(governed.final_heartbeats, 1u) << pipeline;
    EXPECT_EQ(governed.runs.size(), 1u) << pipeline;
    size_t trips = 0;
    for (obs::JournalEventKind kind : governed.events) {
      if (kind == obs::JournalEventKind::kBudgetTrip) ++trips;
    }
    EXPECT_EQ(trips, 1u) << pipeline;
    ASSERT_FALSE(governed.events.empty()) << pipeline;
    EXPECT_EQ(governed.events.back(), obs::JournalEventKind::kBudgetTrip)
        << pipeline;
  }

  // A call the pipeline rejects before doing any work still yields its
  // span and its final heartbeat.
  void ExpectScopeOnEarlyError(const char* span, const char* pipeline,
                               const std::function<void()>& call) {
    Footprint out =
        Observe(span, pipeline, [&](Budget*) { call(); }, nullptr);
    EXPECT_EQ(out.spans, 1u) << span;
    EXPECT_EQ(out.final_heartbeats, 1u) << pipeline;
  }

  // The final heartbeat `pipeline` emitted during `call`.
  obs::ProgressSnapshot FinalHeartbeat(const char* pipeline,
                                       const std::function<void()>& call) {
    snapshots_->clear();
    call();
    for (const obs::ProgressSnapshot& snap : *snapshots_) {
      if (snap.pipeline == pipeline && snap.is_final) return snap;
    }
    ADD_FAILURE() << "no final heartbeat from " << pipeline;
    return {};
  }

  std::shared_ptr<std::vector<obs::ProgressSnapshot>> snapshots_ =
      std::make_shared<std::vector<obs::ProgressSnapshot>>();
};

TEST_F(PipelineRunTest, Chase) {
  SchemaMapping m = Figure1();
  Instance source = MustParseInstance(m.source, "P(a,b,c), P(d,b,e)");
  ExpectOneScopePerCall("chase/standard", "chase/standard",
                        [&](Budget* budget) {
                          ChaseOptions options;
                          options.budget = budget;
                          (void)Chase(source, m, options);
                        });
}

TEST_F(PipelineRunTest, DisjunctiveChase) {
  SchemaMapping m = Figure1();
  ReverseMapping reverse =
      MustParseReverseMapping(m, "Q(x,y) & R(y,z) -> P(x,y,z)");
  Instance target =
      MustParseInstance(m.target, "Q(a,b), R(b,c), Q(d,b), R(b,e)");
  ExpectOneScopePerCall("chase/disjunctive", "chase/disjunctive",
                        [&](Budget* budget) {
                          DisjunctiveChaseOptions options;
                          options.budget = budget;
                          (void)DisjunctiveChase(target, reverse, options);
                        });
}

TEST_F(PipelineRunTest, ChaseWithTargetConstraints) {
  // One source fact: the s-t phase takes the budget's only step, so the
  // fixpoint's first tick trips.
  SchemaMapping m = Figure1();
  Instance source = MustParseInstance(m.source, "P(a,b,c)");
  TargetConstraints constraints =
      MustParseTargetConstraints(*m.target, "Q(x,y) -> exists z: R(y,z)");
  ExpectOneScopePerCall("chase/target", "chase/target", [&](Budget* budget) {
    TargetChaseOptions options;
    options.budget = budget;
    (void)ChaseWithTargetConstraints(source, m, constraints, options);
  });
}

TEST_F(PipelineRunTest, MinGen) {
  SchemaMapping m = Figure1();
  const Tgd& sigma = m.tgds[0];
  ExpectOneScopePerCall("mingen/search", "mingen", [&](Budget* budget) {
    MinGenOptions options;
    options.budget = budget;
    (void)MinGen(m, sigma.rhs, sigma.FrontierVariables(), options);
  });
}

TEST_F(PipelineRunTest, MinGenRejectsAConstantArgument) {
  SchemaMapping m = Figure1();
  Conjunction psi = m.tgds[0].rhs;
  psi[0].args[0] = Value::MakeConstant("a");
  ExpectScopeOnEarlyError("mingen/search", "mingen", [&] {
    Result<std::vector<Conjunction>> gens = MinGen(m, psi, {});
    EXPECT_EQ(gens.status().code(), StatusCode::kInvalidArgument);
  });
  // A rejected call opens no journal run.
  EXPECT_EQ(obs::Journal::NumEvents(), 0u);
}

TEST_F(PipelineRunTest, QuasiInverse) {
  SchemaMapping m = Figure1();
  ExpectOneScopePerCall("quasi_inverse/run", "quasi_inverse",
                        [&](Budget* budget) {
                          QuasiInverseOptions options;
                          options.budget = budget;
                          (void)QuasiInverse(m, options);
                        });
}

TEST_F(PipelineRunTest, InverseAlgorithm) {
  SchemaMapping m = Figure1();
  ExpectOneScopePerCall("inverse/run", "inverse", [&](Budget* budget) {
    InverseOptions options;
    options.budget = budget;
    (void)InverseAlgorithm(m, options);
  });
}

TEST_F(PipelineRunTest, InverseRejectsAMappingWithoutConstantPropagation) {
  SchemaMapping m = MustParseMapping("P/2", "Q/1", "P(x,y) -> Q(x)");
  ExpectScopeOnEarlyError("inverse/run", "inverse", [&] {
    Result<ReverseMapping> reverse = InverseAlgorithm(m);
    EXPECT_EQ(reverse.status().code(), StatusCode::kFailedPrecondition);
  });
}

TEST_F(PipelineRunTest, LavQuasiInverse) {
  SchemaMapping m = Figure1();
  ExpectOneScopePerCall("lav_quasi_inverse/run", "lav_quasi_inverse",
                        [&](Budget* budget) {
                          LavQuasiInverseOptions options;
                          options.budget = budget;
                          (void)LavQuasiInverse(m, options);
                        });
}

TEST_F(PipelineRunTest, LavQuasiInverseRejectsANonLavMapping) {
  SchemaMapping m =
      MustParseMapping("P/2, S/2", "Q/2", "P(x,y) & S(y,z) -> Q(x,z)");
  ExpectScopeOnEarlyError("lav_quasi_inverse/run", "lav_quasi_inverse", [&] {
    Result<ReverseMapping> reverse = LavQuasiInverse(m);
    EXPECT_EQ(reverse.status().code(), StatusCode::kFailedPrecondition);
  });
}

TEST_F(PipelineRunTest, CheckContainment) {
  SchemaMapping sub = Figure1();
  SchemaMapping super =
      MustParseMapping("P/3", "Q/2, R/2", "P(x,y,z) -> Q(x,y)");
  ExpectOneScopePerCall("containment/run", "containment",
                        [&](Budget* budget) {
                          ContainmentOptions options;
                          options.budget = budget;
                          (void)CheckContainment(sub, super, options);
                        });
}

TEST_F(PipelineRunTest, CheckContainmentRejectsDifferentSchemas) {
  SchemaMapping sub = Figure1();
  SchemaMapping super = MustParseMapping("P/3", "Q/2", "P(x,y,z) -> Q(x,y)");
  ExpectScopeOnEarlyError("containment/run", "containment", [&] {
    Result<ContainmentReport> report = CheckContainment(sub, super);
    EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  });
}

// The run's own step valve trips ahead of the shared budget: the refused
// tick reaches neither count, so the shared budget holds exactly the
// steps the run performed and stays untripped.
TEST_F(PipelineRunTest, StepValveTripsWithoutTrippingTheSharedBudget) {
  SchemaMapping m = Figure1();
  Instance source = MustParseInstance(
      m.source, "P(a,b,c), P(d,b,e), P(f,g,h), P(i,j,k)");
  Budget shared(BudgetSpec::StepsOnly(100));
  ChaseOptions options;
  options.max_steps = 3;
  options.budget = &shared;
  ChaseStats stats;
  obs::ProgressSnapshot last = FinalHeartbeat("chase/standard", [&] {
    Result<Instance> chased = Chase(source, m, options, &stats);
    EXPECT_EQ(chased.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(chased.status().message(),
              "standard chase exceeded its step limit (3 steps)");
  });
  EXPECT_TRUE(stats.partial);
  EXPECT_EQ(stats.steps, 3u);
  EXPECT_EQ(last.steps, 3u);
  EXPECT_EQ(shared.steps(), 3u);
  EXPECT_FALSE(shared.exhausted());
}

// A tick the shared budget refuses is not counted either: the run's
// steps, its fired + skipped triggers, its heartbeats, its journal budget
// event and the shared budget all read the one step performed.
TEST_F(PipelineRunTest, SharedBudgetTripCountsOnlyAdmittedSteps) {
  SchemaMapping m = Figure1();
  Instance source = MustParseInstance(m.source, "P(a,b,c), P(d,b,e)");
  Budget shared(BudgetSpec::StepsOnly(1));
  ChaseOptions options;
  options.budget = &shared;
  ChaseStats stats;
  obs::ProgressSnapshot last = FinalHeartbeat("chase/standard", [&] {
    Result<Instance> chased = Chase(source, m, options, &stats);
    EXPECT_EQ(chased.status().code(), StatusCode::kResourceExhausted);
  });
  EXPECT_TRUE(stats.partial);
  EXPECT_EQ(stats.steps, 1u);
  EXPECT_EQ(stats.triggers_fired + stats.satisfaction_hits, 1u);
  EXPECT_EQ(shared.steps(), 1u);
  EXPECT_EQ(last.steps, 1u);
  std::vector<std::string> usages;
  for (const obs::JournalEvent& event : obs::Journal::Events()) {
    if (event.kind == obs::JournalEventKind::kBudgetTrip) {
      usages.push_back(event.bindings);
    }
  }
  ASSERT_EQ(usages.size(), 1u);
  EXPECT_EQ(usages[0].rfind("steps=1, ", 0), 0u) << usages[0];
}

// With no shared budget and no valve, nothing can trip a call.
TEST_F(PipelineRunTest, CheckPassesWithoutASharedBudget) {
  obs::PipelineRun run({"test/run", "test", "test run"}, 0, nullptr, {});
  EXPECT_TRUE(run.Check().ok());
  EXPECT_TRUE(run.Tick().ok());
  EXPECT_TRUE(run.Check().ok());
  EXPECT_FALSE(run.exhausted());
}

// A final heartbeat reports what the run did, although the pipeline has
// moved its result out to the caller by the time the scope emits it.
TEST_F(PipelineRunTest, QuasiInverseFinalHeartbeatCountsTheRulesEmitted) {
  SchemaMapping m = Figure1();
  size_t rules = 0;
  obs::ProgressSnapshot last = FinalHeartbeat("quasi_inverse", [&] {
    Result<ReverseMapping> reverse = QuasiInverse(m);
    ASSERT_TRUE(reverse.ok());
    rules = reverse->deps.size();
  });
  EXPECT_GT(rules, 0u);
  EXPECT_EQ(last.fired, rules);
}

TEST_F(PipelineRunTest, TargetChaseFinalHeartbeatCountsTheSolution) {
  SchemaMapping m = Figure1();
  Instance source = MustParseInstance(m.source, "P(a,b,c), P(d,b,e)");
  TargetConstraints constraints =
      MustParseTargetConstraints(*m.target, "Q(x,y) -> exists z: R(y,z)");
  size_t facts = 0;
  obs::ProgressSnapshot last = FinalHeartbeat("chase/target", [&] {
    Result<TargetChaseResult> result =
        ChaseWithTargetConstraints(source, m, constraints);
    ASSERT_TRUE(result.ok());
    facts = result->solution.NumFacts();
  });
  EXPECT_GT(facts, 0u);
  EXPECT_EQ(last.facts, facts);
}

TEST_F(PipelineRunTest, CheckContainmentFinalHeartbeatCountsTheVerdicts) {
  SchemaMapping sub = Figure1();
  SchemaMapping super =
      MustParseMapping("P/3", "Q/2, R/2", "P(x,y,z) -> Q(x,y)");
  obs::ProgressSnapshot last = FinalHeartbeat("containment", [&] {
    Result<ContainmentReport> report = CheckContainment(sub, super);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->verdicts.size(), 1u);
  });
  EXPECT_EQ(last.fired, 1u);
}

// MinGen's candidate valve caps the search but does not estimate its
// length, so its heartbeats carry no total (and no ETA).
TEST_F(PipelineRunTest, MinGenHeartbeatsCarryNoTotalEstimate) {
  SchemaMapping m = Figure1();
  const Tgd& sigma = m.tgds[0];
  obs::ProgressSnapshot last = FinalHeartbeat("mingen", [&] {
    ASSERT_TRUE(MinGen(m, sigma.rhs, sigma.FrontierVariables()).ok());
  });
  EXPECT_EQ(last.total_estimate, 0u);
  EXPECT_EQ(last.eta_us, 0u);
}

}  // namespace
}  // namespace qimap
