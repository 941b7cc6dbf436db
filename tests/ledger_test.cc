#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/budget.h"
#include "chase/chase.h"
#include "dependency/parser.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_record.h"
#include "relational/instance.h"

// Tests for the run record and its ledger (obs/run_record.h): atomic
// JSONL appends with dense seq assignment, records that no control
// character can split, survival of a fault-injected crash mid-write,
// canonical records byte-identical across runs, and the telemetry diff.

namespace qimap {
namespace {

std::string TempLedgerPath(const char* name) {
  return ::testing::TempDir() + name;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(f);
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (end > pos) lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return lines;
}

TEST(LedgerTest, AppendAssignsDenseSeqAndRecordsParse) {
  std::string path = TempLedgerPath("ledger_append_test.jsonl");
  std::remove(path.c_str());

  obs::RunRecord first =
      obs::CollectRunRecord("chase", nullptr, 0, 0.25);
  first.mapping_fingerprint = 0x1234;
  ASSERT_TRUE(obs::AppendToLedger(path, &first));
  EXPECT_EQ(first.seq, 1u);

  obs::RunRecord second =
      obs::CollectRunRecord("quasi-inverse", nullptr, 1, 0.5);
  ASSERT_TRUE(obs::AppendToLedger(path, &second));
  EXPECT_EQ(second.seq, 2u);

  std::vector<std::string> lines = SplitLines(ReadFileOrEmpty(path));
  ASSERT_EQ(lines.size(), 2u);
  for (size_t k = 0; k < lines.size(); ++k) {
    Result<obs::JsonValue> record = obs::ParseJson(lines[k]);
    ASSERT_TRUE(record.ok()) << lines[k];
    const obs::JsonValue* seq = record->Find("seq");
    ASSERT_NE(seq, nullptr);
    EXPECT_EQ(seq->number_value, static_cast<double>(k + 1));
    EXPECT_NE(record->Find("meta"), nullptr);
    EXPECT_NE(record->Find("counters"), nullptr);
    EXPECT_NE(record->Find("budget"), nullptr);
  }
  // Keep the parsed record alive: Find returns a pointer into it.
  Result<obs::JsonValue> first_record = obs::ParseJson(lines[0]);
  ASSERT_TRUE(first_record.ok()) << lines[0];
  const obs::JsonValue* command = first_record->Find("command");
  ASSERT_NE(command, nullptr);
  EXPECT_EQ(command->string_value, "chase");
  std::remove(path.c_str());
}

TEST(LedgerTest, CollectReadsTheBudgetOutcome) {
  BudgetSpec spec;
  spec.max_steps = 1;
  Budget budget(spec);
  EXPECT_TRUE(budget.Tick("t").ok());
  EXPECT_FALSE(budget.Tick("t").ok());
  obs::RunRecord entry =
      obs::CollectRunRecord("chase", &budget, 1, 0.1);
  EXPECT_EQ(entry.budget_outcome, "steps");
  EXPECT_EQ(entry.budget_steps, 1u);
  EXPECT_EQ(entry.exit_code, 1);

  Budget untripped;
  EXPECT_TRUE(untripped.Tick("t").ok());
  obs::RunRecord ok_entry =
      obs::CollectRunRecord("chase", &untripped, 0, 0.1);
  EXPECT_EQ(ok_entry.budget_outcome, "ok");
  EXPECT_EQ(ok_entry.budget_steps, 1u);
}

// The crash-safety contract: a failed append never damages the existing
// ledger and never leaves a torn record under the final name.
TEST(LedgerTest, FaultInjectedCrashMidWriteLeavesLedgerIntact) {
  std::string path = TempLedgerPath("ledger_crash_test.jsonl");
  std::remove(path.c_str());

  obs::RunRecord first = obs::CollectRunRecord("chase", nullptr, 0, 0.1);
  ASSERT_TRUE(obs::AppendToLedger(path, &first));
  std::string before = ReadFileOrEmpty(path);
  ASSERT_FALSE(before.empty());

  // The next append writes only 10 bytes of the staged temp file and
  // stops before the rename — a crash mid-write.
  obs::FailNextAppendForTest(10);
  obs::RunRecord torn = obs::CollectRunRecord("chase", nullptr, 0, 0.2);
  EXPECT_FALSE(obs::AppendToLedger(path, &torn));

  // The ledger under its final name is byte-identical to before the
  // crash, and still fully parseable.
  EXPECT_EQ(ReadFileOrEmpty(path), before);
  std::vector<std::string> lines = SplitLines(before);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(obs::ParseJson(lines[0]).ok());

  // The next append recovers: seq picks up where the ledger really is.
  obs::RunRecord second = obs::CollectRunRecord("chase", nullptr, 0, 0.3);
  ASSERT_TRUE(obs::AppendToLedger(path, &second));
  EXPECT_EQ(second.seq, 2u);
  lines = SplitLines(ReadFileOrEmpty(path));
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(obs::ParseJson(line).ok()) << line;
  }
  std::remove(path.c_str());
}

// Two processes hammering the same ledger: the append path is
// read + concat + staged-temp + rename, so without cross-process
// serialization two writers read the same prefix and the second rename
// silently drops the first writer's record. The flock'd lock file
// serializes the whole read-modify-rename, so every append survives and
// seq stays dense in file order.
TEST(LedgerTest, ConcurrentProcessAppendsLoseNoRecords) {
  std::string path = TempLedgerPath("ledger_concurrent_test.jsonl");
  std::remove(path.c_str());
  constexpr int kWriters = 2;
  constexpr int kAppendsPerWriter = 25;
  std::vector<pid_t> pids;
  for (int w = 0; w < kWriters; ++w) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: loop plain appends; the exit code reports failures.
      int failures = 0;
      for (int k = 0; k < kAppendsPerWriter; ++k) {
        obs::RunRecord entry = obs::CollectRunRecord(
            w == 0 ? "writer-a" : "writer-b", nullptr, 0,
            0.001 * static_cast<double>(k + 1));
        if (!obs::AppendToLedger(path, &entry)) ++failures;
      }
      _exit(failures > 125 ? 125 : failures);
    }
    pids.push_back(pid);
  }
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "a child writer saw failed appends";
  }
  std::vector<std::string> lines = SplitLines(ReadFileOrEmpty(path));
  ASSERT_EQ(lines.size(),
            static_cast<size_t>(kWriters * kAppendsPerWriter));
  // Every record parses and seq runs dense 1..N in file order — the
  // proof no interleaved append overwrote another's records.
  for (size_t k = 0; k < lines.size(); ++k) {
    Result<obs::JsonValue> record = obs::ParseJson(lines[k]);
    ASSERT_TRUE(record.ok()) << lines[k];
    const obs::JsonValue* seq = record->Find("seq");
    ASSERT_NE(seq, nullptr);
    EXPECT_EQ(seq->number_value, static_cast<double>(k + 1)) << lines[k];
  }
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

// The determinism contract: the canonical rendering of a ledger record —
// which omits timing and the meta stamp — is byte-identical across two
// identical back-to-back runs.
TEST(LedgerTest, CanonicalRecordsAreByteIdenticalAcrossRuns) {
  std::vector<std::string> renderings;
  for (int run = 1; run <= 2; ++run) {
    obs::ResetMetrics();
    SchemaMapping m = MustParseMapping("P/3", "Q/2, R/2",
                                       "P(x,y,z) -> Q(x,y) & R(y,z)");
    Instance i = MustParseInstance(m.source, "P(a,b,c), P(d,b,e)");
    ASSERT_TRUE(Chase(i, m).ok());
    obs::RunRecord entry = obs::CollectRunRecord(
        "chase", nullptr, 0, 0.001 * static_cast<double>(run));
    entry.ts_us = 1000 * run;  // timing differs; canonical omits it
    renderings.push_back(entry.ToJson(/*canonical=*/true));
    // The full rendering does carry the varying timing fields.
    EXPECT_NE(entry.ToJson(false).find("ts_us"), std::string::npos);
  }
  ASSERT_EQ(renderings.size(), 2u);
  EXPECT_EQ(renderings[0], renderings[1]);
  // Canonical records exclude the run-dependent surfaces entirely.
  EXPECT_EQ(renderings[0].find("\"meta\""), std::string::npos);
  EXPECT_EQ(renderings[0].find("ts_us"), std::string::npos);
  EXPECT_EQ(renderings[0].find("elapsed_seconds"), std::string::npos);
  EXPECT_EQ(renderings[0].find("histograms"), std::string::npos);
}

obs::JsonValue MustParse(const std::string& text) {
  Result<obs::JsonValue> parsed = obs::ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return std::move(parsed).value();
}

TEST(LedgerTest, DiffReportsCounterProfileAndOutcomeDeltas) {
  obs::RunRecord a;
  a.command = "chase";
  a.metrics.counters = {{"chase.steps", 10}};
  obs::ProfileDepSnapshot dep;
  dep.pipeline = "chase/standard";
  dep.text = "P(x) -> Q(x)";
  dep.body_atoms = 1;
  dep.totals.searches = 5;
  dep.totals.fired = 3;
  dep.totals.atoms.resize(1);
  a.profile.emplace();
  a.profile->deps.push_back(dep);

  obs::RunRecord b = a;
  obs::JsonValue ja = MustParse(a.ToJson(false));
  obs::JsonValue jb = MustParse(b.ToJson(false));
  EXPECT_TRUE(obs::DiffLedgerEntries(ja, jb).empty());

  // A counter delta is one diff line.
  b.metrics.counters["chase.steps"] = 12;
  jb = MustParse(b.ToJson(false));
  std::vector<std::string> diffs = obs::DiffLedgerEntries(ja, jb);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].find("chase.steps"), std::string::npos);

  // Profile hot-spot drift and a budget-outcome change are both visible.
  b = a;
  b.profile->deps[0].totals.searches = 50;
  b.budget_outcome = "steps";
  jb = MustParse(b.ToJson(false));
  diffs = obs::DiffLedgerEntries(ja, jb);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_NE(diffs[1].find("chase/standard :: P(x) -> Q(x) searches"),
            std::string::npos)
      << diffs[1];

  // Different timing alone is not a delta.
  b = a;
  b.ts_us = 999999;
  b.elapsed_seconds = 42.0;
  b.profile->deps[0].totals.time_us = 777;
  jb = MustParse(b.ToJson(false));
  EXPECT_TRUE(obs::DiffLedgerEntries(ja, jb).empty());
}

// Every string goes through the one JSON escaper, so a command holding a
// newline or a tab stays on its own JSONL line and seq stays dense.
TEST(LedgerTest, ControlCharactersCannotSplitARecord) {
  std::string path = TempLedgerPath("ledger_control_chars_test.jsonl");
  std::remove(path.c_str());
  for (const char* command : {"a\nb", "c\td"}) {
    obs::RunRecord record = obs::CollectRunRecord(command, nullptr, 2, 0.0);
    ASSERT_TRUE(obs::AppendToLedger(path, &record));
  }
  std::vector<std::string> lines = SplitLines(ReadFileOrEmpty(path));
  ASSERT_EQ(lines.size(), 2u);
  const char* commands[] = {"a\nb", "c\td"};
  for (size_t k = 0; k < lines.size(); ++k) {
    obs::JsonValue record = MustParse(lines[k]);
    ASSERT_NE(record.Find("seq"), nullptr);
    EXPECT_EQ(record.Find("seq")->number_value, static_cast<double>(k + 1));
    ASSERT_NE(record.Find("command"), nullptr);
    EXPECT_EQ(record.Find("command")->string_value, commands[k]);
  }
  std::remove(path.c_str());
}

// The record carries a profile exactly when the profiler was on.
TEST(LedgerTest, ProfileIsNullUnlessTheProfilerRan) {
  obs::Profiler::Reset();
  SchemaMapping m = MustParseMapping("P/3", "Q/2, R/2",
                                     "P(x,y,z) -> Q(x,y) & R(y,z)");
  Instance i = MustParseInstance(m.source, "P(a,b,c)");
  ASSERT_TRUE(Chase(i, m).ok());
  obs::RunRecord off = obs::CollectRunRecord("chase", nullptr, 0, 0.0);
  EXPECT_FALSE(off.profile.has_value());
  EXPECT_TRUE(MustParse(off.ToJson(false)).Find("profile")->type ==
              obs::JsonValue::Type::kNull);

  obs::Profiler::Enable();
  ASSERT_TRUE(Chase(i, m).ok());
  obs::RunRecord on = obs::CollectRunRecord("chase", nullptr, 0, 0.0);
  obs::Profiler::Disable();
  obs::Profiler::Reset();
  ASSERT_TRUE(on.profile.has_value());
  EXPECT_FALSE(on.profile->deps.empty());
  obs::JsonValue parsed = MustParse(on.ToJson(false));
  const obs::JsonValue* deps = parsed.Find("profile")->Find("deps");
  ASSERT_NE(deps, nullptr);
  EXPECT_EQ(deps->items.size(), on.profile->deps.size());
}

}  // namespace
}  // namespace qimap
