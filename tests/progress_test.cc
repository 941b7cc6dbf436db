#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/budget.h"
#include "chase/chase.h"
#include "dependency/parser.h"
#include "obs/json.h"
#include "obs/progress.h"
#include "relational/instance.h"

// Tests for the live progress heartbeats (obs/progress.h): deterministic
// emission intervals under an injectable clock, canonical snapshots that
// are byte-identical across runs, the JSONL stream shape, and zero delta
// when disabled.

namespace qimap {
namespace {

// The Figure 1 mapping of the paper, chased over two source facts.
SchemaMapping Figure1Mapping() {
  return MustParseMapping("P/3", "Q/2, R/2", "P(x,y,z) -> Q(x,y) & R(y,z)");
}

Instance Figure1Instance(const SchemaMapping& m) {
  return MustParseInstance(m.source, "P(a,b,c), P(d,b,e)");
}

class ProgressTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Progress::Reset(); }
  void TearDown() override { obs::Progress::Reset(); }

  // Arms the emitter with an in-process sink and a scripted clock that
  // advances 100us per reading; heartbeats land in `snapshots_`.
  void ConfigureWithSink(uint64_t interval) {
    obs::ProgressConfig config;
    config.interval = interval;
    auto ticks = std::make_shared<uint64_t>(0);
    config.clock = [ticks]() { return *ticks += 100; };
    auto sink = snapshots_;
    config.sink = [sink](const obs::ProgressSnapshot& snap) {
      sink->push_back(snap);
    };
    obs::Progress::Configure(config);
    obs::Progress::Enable();
  }

  std::shared_ptr<std::vector<obs::ProgressSnapshot>> snapshots_ =
      std::make_shared<std::vector<obs::ProgressSnapshot>>();
};

TEST_F(ProgressTest, HeartbeatsFireAtDeterministicIntervals) {
  ConfigureWithSink(/*interval=*/1);
  SchemaMapping m = Figure1Mapping();
  Instance i = Figure1Instance(m);
  ASSERT_TRUE(Chase(i, m).ok());
  obs::Progress::Disable();

  // Two tgd firings at interval 1 → heartbeats at steps 1 and 2, plus
  // the destructor's final snapshot.
  ASSERT_EQ(snapshots_->size(), 3u);
  EXPECT_EQ((*snapshots_)[0].steps, 1u);
  EXPECT_FALSE((*snapshots_)[0].is_final);
  EXPECT_EQ((*snapshots_)[1].steps, 2u);
  EXPECT_TRUE(snapshots_->back().is_final);
  EXPECT_EQ(snapshots_->back().pipeline, "chase/standard");
  // The final snapshot sees the completed chase: 4 target facts fired by
  // 2 triggers, no nulls (the tgd has no existentials).
  EXPECT_EQ(snapshots_->back().facts, 4u);
  EXPECT_EQ(snapshots_->back().fired, 2u);
  EXPECT_EQ(snapshots_->back().nulls, 0u);
  // The merged-batch refinement makes the total exact.
  EXPECT_EQ(snapshots_->back().total_estimate, 2u);
  // seq is strictly increasing; the scripted clock makes elapsed_us
  // deterministic and monotone.
  for (size_t k = 1; k < snapshots_->size(); ++k) {
    EXPECT_GT((*snapshots_)[k].seq, (*snapshots_)[k - 1].seq);
    EXPECT_GE((*snapshots_)[k].elapsed_us, (*snapshots_)[k - 1].elapsed_us);
  }
}

TEST_F(ProgressTest, IntervalSuppressesIntermediateHeartbeats) {
  ConfigureWithSink(/*interval=*/1000);
  SchemaMapping m = Figure1Mapping();
  Instance i = Figure1Instance(m);
  ASSERT_TRUE(Chase(i, m).ok());
  obs::Progress::Disable();

  // 2 steps < interval: only the destructor's final heartbeat fires.
  ASSERT_EQ(snapshots_->size(), 1u);
  EXPECT_TRUE((*snapshots_)[0].is_final);
  EXPECT_EQ((*snapshots_)[0].steps, 2u);
}

TEST_F(ProgressTest, BudgetFractionTracksTheTightestCounterLimit) {
  ConfigureWithSink(/*interval=*/1);
  BudgetSpec spec;
  spec.max_steps = 8;
  Budget budget(spec);
  ChaseOptions options;
  options.budget = &budget;
  SchemaMapping m = Figure1Mapping();
  Instance i = Figure1Instance(m);
  ASSERT_TRUE(Chase(i, m, options).ok());
  obs::Progress::Disable();

  ASSERT_FALSE(snapshots_->empty());
  // With max_steps = 8 the final snapshot has consumed a strictly
  // positive fraction of the budget, capped at 1.
  double fraction = snapshots_->back().budget_fraction;
  EXPECT_GT(fraction, 0.0);
  EXPECT_LE(fraction, 1.0);
}

TEST_F(ProgressTest, NoBudgetMeansNoFraction) {
  ConfigureWithSink(/*interval=*/1);
  SchemaMapping m = Figure1Mapping();
  Instance i = Figure1Instance(m);
  ASSERT_TRUE(Chase(i, m).ok());
  obs::Progress::Disable();
  ASSERT_FALSE(snapshots_->empty());
  EXPECT_DOUBLE_EQ(snapshots_->back().budget_fraction, -1.0);
}

// The determinism contract: the canonical (timing-free) rendering of
// every heartbeat is byte-identical across two identical back-to-back
// runs.
TEST_F(ProgressTest, CanonicalSnapshotsAreByteIdenticalAcrossRuns) {
  std::vector<std::vector<std::string>> per_run_renderings;
  for (int run = 0; run < 2; ++run) {
    obs::Progress::Reset();  // rewind seq so runs are comparable
    ConfigureWithSink(/*interval=*/1);
    SchemaMapping m = Figure1Mapping();
    Instance i = Figure1Instance(m);
    ASSERT_TRUE(Chase(i, m).ok());
    obs::Progress::Disable();
    std::vector<std::string> rendered;
    for (const obs::ProgressSnapshot& snap : *snapshots_) {
      rendered.push_back(snap.ToJson(/*canonical=*/true));
    }
    per_run_renderings.push_back(std::move(rendered));
    snapshots_->clear();
  }
  ASSERT_EQ(per_run_renderings.size(), 2u);
  EXPECT_EQ(per_run_renderings[0], per_run_renderings[1]);
  EXPECT_FALSE(per_run_renderings[0].empty());
}

TEST_F(ProgressTest, CanonicalJsonOmitsTimingFields) {
  obs::ProgressSnapshot snap;
  snap.seq = 7;
  snap.pipeline = "chase/standard";
  snap.steps = 3;
  snap.elapsed_us = 1234;
  snap.eta_us = 99;
  std::string full = snap.ToJson(/*canonical=*/false);
  std::string canonical = snap.ToJson(/*canonical=*/true);
  EXPECT_NE(full.find("elapsed_us"), std::string::npos);
  EXPECT_NE(full.find("eta_us"), std::string::npos);
  EXPECT_EQ(canonical.find("elapsed_us"), std::string::npos);
  EXPECT_EQ(canonical.find("eta_us"), std::string::npos);
  // Both renderings are valid JSON.
  EXPECT_TRUE(obs::ParseJson(full).ok());
  EXPECT_TRUE(obs::ParseJson(canonical).ok());
}

TEST_F(ProgressTest, JsonlStreamHasMetaHeaderAndFinalHeartbeat) {
  std::string path = ::testing::TempDir() + "progress_stream_test.jsonl";
  std::remove(path.c_str());
  obs::ProgressConfig config;
  config.interval = 1;
  config.jsonl_path = path;
  obs::Progress::Configure(config);
  obs::Progress::Enable();

  SchemaMapping m = Figure1Mapping();
  Instance i = Figure1Instance(m);
  ASSERT_TRUE(Chase(i, m).ok());
  EXPECT_TRUE(obs::Progress::CloseStream());
  obs::Progress::Disable();

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);
  std::remove(path.c_str());

  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (end > pos) lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  ASSERT_GE(lines.size(), 2u);
  // Header first, then heartbeats; every line parses.
  Result<obs::JsonValue> header = obs::ParseJson(lines[0]);
  ASSERT_TRUE(header.ok());
  EXPECT_NE(header->Find("meta"), nullptr);
  bool saw_final = false;
  for (size_t k = 1; k < lines.size(); ++k) {
    Result<obs::JsonValue> beat = obs::ParseJson(lines[k]);
    ASSERT_TRUE(beat.ok()) << lines[k];
    const obs::JsonValue* final_flag = beat->Find("final");
    ASSERT_NE(final_flag, nullptr);
    if (final_flag->bool_value) saw_final = true;
  }
  EXPECT_TRUE(saw_final);
}

// A stream path that cannot be opened is reported by CloseStream once
// heartbeats tried to use it; a run that emitted none never opened it.
TEST_F(ProgressTest, CloseStreamReportsAnUnwritablePath) {
  obs::ProgressConfig config;
  config.interval = 1;
  config.jsonl_path = ::testing::TempDir() + "no_such_dir/progress.jsonl";
  obs::Progress::Configure(config);
  obs::Progress::Enable();
  EXPECT_TRUE(obs::Progress::CloseStream());

  SchemaMapping m = Figure1Mapping();
  ASSERT_TRUE(Chase(Figure1Instance(m), m).ok());
  EXPECT_FALSE(obs::Progress::CloseStream());
  EXPECT_TRUE(obs::Progress::CloseStream());
}

// Disabled progress must not perturb the chase: same output, zero
// heartbeats, and a pipeline run that never samples.
TEST_F(ProgressTest, DisabledProgressIsZeroDelta) {
  SchemaMapping m = Figure1Mapping();
  Instance i = Figure1Instance(m);
  Result<Instance> plain = Chase(i, m);
  ASSERT_TRUE(plain.ok());

  ConfigureWithSink(/*interval=*/1);
  Result<Instance> observed = Chase(i, m);
  obs::Progress::Disable();
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(plain->ToString(), observed->ToString());
  EXPECT_FALSE(snapshots_->empty());

  snapshots_->clear();
  Result<Instance> after = Chase(i, m);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(plain->ToString(), after->ToString());
  EXPECT_TRUE(snapshots_->empty());  // disabled → not a single heartbeat
}

}  // namespace
}  // namespace qimap
