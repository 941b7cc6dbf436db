// Compile-only probe for the obs kill-switches. This file — and the chase
// engines alongside it in the qimap_obs_disabled OBJECT library — is built
// with QIMAP_OBS_DISABLE_TRACING, QIMAP_OBS_DISABLE_PROVENANCE,
// QIMAP_OBS_DISABLE_PROFILER, QIMAP_OBS_DISABLE_PROGRESS, and
// QIMAP_OBS_DISABLE_LEDGER defined, proving that the instrumented
// pipelines still compile against the stub span/recorder/profiler/
// heartbeat/ledger classes and that the stubs are genuinely inert.
// Nothing here runs; the build succeeding is the assertion.

#include "obs/journal.h"
#include "obs/ledger.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace qimap {
namespace {

static_assert(!obs::JournalRun::active(),
              "the QIMAP_OBS_DISABLE_PROVENANCE stub must report inactive "
              "so instrumentation folds away");

// Exercises every stub recorder method the chase engines call, the way
// they call it (guarded, ids collected), so a signature drift between the
// real and stub JournalRun classes fails this build leg.
[[maybe_unused]] uint64_t ProbeJournalStubs() {
  QIMAP_TRACE_SPAN("probe/disabled");
  obs::JournalRun journal("probe");
  uint64_t sum = 0;
  if (journal.active()) {
    sum += journal.RecordBaseFact("P(a)");
    sum += journal.RecordDerivedFact("Q(a)", "P(x) -> Q(x)", 0, "x=a", {1});
    sum += journal.RecordDerivedFact("Q(a,_N1)", "dep", 0, "x=a", {1}, {2},
                                     1, 3);
    sum += journal.RecordNull("_N1", "y", "dep", 0);
    sum += journal.RecordMerge("_N1", "_N2", "egd", 0, "x=a");
    sum += journal.RecordRule("rule", "sigma", 0, "x", {1, 2});
    sum += journal.RecordBudget("budget exhausted", "steps", "steps=1");
    sum += journal.IdForFact("P(a)");
  }
  return sum;
}

// Exercises every stub profiler entry point the engines call, so a
// signature drift between the real and stub profiler APIs fails this
// build leg.
[[maybe_unused]] uint64_t ProbeProfilerStubs() {
  obs::Profiler::Enable();
  uint32_t dep = obs::Profiler::RegisterDep("probe", "P(x) -> Q(x)", 1);
  obs::ProfiledDepScope scope(dep, obs::ProfilePhase::kCollect);
  uint64_t sum = 0;
  if (obs::ProfileSearchActive()) {
    std::vector<obs::ProfileAtomCounters> atoms(1);
    obs::ProfileRecordSearch(1, 0, atoms);
    sum += 1;
  }
  obs::ProfileRecordTriggers(dep, 1);
  obs::ProfileRecordFire(dep, 0, 1);
  obs::ProfileRecordSkip(dep);
  obs::ProfileRecordOutcomes(dep, 1, 1, 0);
  sum += obs::Profiler::Snapshot().deps.size();
  sum += obs::Profiler::Enabled() ? 1 : 0;
  obs::Profiler::Disable();
  obs::Profiler::Reset();
  return sum;
}

// Exercises the stub heartbeat API the way the nine pipelines call it, so
// a signature drift between the real and stub ProgressRun fails this leg.
[[maybe_unused]] uint64_t ProbeProgressStubs() {
  obs::Progress::Enable();
  obs::ProgressConfig config;
  obs::Progress::Configure(config);
  obs::ProgressRun run(
      "probe", [] { return obs::ProgressSample{}; }, nullptr);
  run.Step();
  run.SetTotalEstimate(10);
  uint64_t sum = run.steps();
  sum += obs::Progress::Enabled() ? 1 : 0;
  obs::Progress::CloseStream();
  obs::Progress::Disable();
  obs::Progress::Reset();
  return sum;
}

// Exercises the stub ledger API the way qimap_cli and the bench reporter
// call it; the stub Append must refuse and the diff must come back empty.
[[maybe_unused]] uint64_t ProbeLedgerStubs() {
  obs::Ledger::Enable();
  obs::Ledger::FailNextAppendForTest(1);
  obs::LedgerEntry entry =
      obs::CollectLedgerEntry("probe", nullptr, 0, 0.0);
  uint64_t sum = obs::AppendToLedger("/dev/null", &entry) ? 1 : 0;
  sum += obs::Ledger::Enabled() ? 1 : 0;
  obs::Ledger::Disable();
  obs::Ledger::Reset();
  return sum;
}

}  // namespace
}  // namespace qimap
