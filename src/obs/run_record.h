#ifndef QIMAP_OBS_RUN_RECORD_H_
#define QIMAP_OBS_RUN_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace qimap {

class Budget;

namespace obs {

struct JsonValue;

/// The run record: one JSON object per CLI, generator or bench run —
/// what ran on what (command, mapping and source fingerprints), how it
/// ended (exit code, budget outcome), the work it did (metrics counters,
/// the per-dependency profile when the profiler was on, the cost model)
/// and, for benches, the timed phases.
///
/// Every sink renders it with the one ToJson below:
///   * `qimap_cli` / `qimap_gen --record-out FILE` write it;
///   * `--ledger FILE` (or QIMAP_LEDGER) appends the same object as one
///     JSONL line, with its 1-based `seq`, so `qimap_cli report` lists
///     and diffs runs and `bench_report --history` gates against them;
///   * each bench writes it as BENCH_<name>.json.
/// `telemetry_check --record` / `--ledger` validate it. Schema and the
/// canonical rules: docs/observability.md, "Run record".
struct RunRecord {
  /// One timed bench phase.
  struct Phase {
    std::string name;
    double seconds = 0.0;
  };

  std::string command;  ///< e.g. "chase", "gen", "bench/chase_scaling"
  int exit_code = 0;
  double elapsed_seconds = 0.0;  ///< run wall time (timing)
  uint64_t ts_us = 0;            ///< wall-clock collect time (timing)
  uint64_t mapping_fingerprint = 0;  ///< DependencyFingerprint; 0 = none
  uint64_t source_fingerprint = 0;   ///< Instance::Fingerprint; 0 = none
  /// "ok", or the tripped limit's BudgetLimitName ("steps", "deadline",
  /// "memory", "nulls", "cancelled", "fault").
  std::string budget_outcome = "ok";
  uint64_t budget_steps = 0;
  uint64_t budget_nulls = 0;
  uint64_t budget_bytes = 0;
  MetricsSnapshot metrics;                 ///< the counters
  std::optional<ProfileSnapshot> profile;  ///< empty: profiler was off
  std::string cost_model_json;  ///< pre-rendered CostModel JSON; "" = null
  std::vector<Phase> phases;    ///< bench records only
  uint64_t seq = 0;  ///< ledger position, set by AppendToLedger; 0 = none

  /// One JSON object on one line (no trailing newline). `canonical`
  /// keeps only fields that are byte-identical across runs of the same
  /// input: it omits `meta` (it names the build, not the run), `ts_us`,
  /// `elapsed_seconds`, `phases` and per-dependency `time_us`. `seq` is
  /// rendered only when set.
  std::string ToJson(bool canonical) const;
};

/// Collects the process telemetry into a record: the merged metrics, the
/// profiler snapshot when the profiler is enabled, the budget outcome
/// read from `budget` (may be null) and the wall-clock time. Fingerprints,
/// the cost model and phases are the caller's to fill in.
RunRecord CollectRunRecord(const std::string& command, const Budget* budget,
                           int exit_code, double elapsed_seconds);

/// Appends `record` to the JSONL ledger at `path` (created if absent),
/// assigning `record->seq = <existing records> + 1`. Atomic at the
/// record level: the new content is staged in `<path>.tmp` and rename(2)d
/// into place under an exclusive flock on `<path>.lock`, so a crash
/// mid-write leaves the previous ledger intact and concurrent writers
/// lose no records. False on I/O error; the existing ledger is never
/// damaged.
bool AppendToLedger(const std::string& path, RunRecord* record);

/// Publishes `record` to every sink a run asked for: writes it to
/// `record_path` (when nonempty) as one line, then appends the same
/// object to the ledger at `ledger_path` (when nonempty). A failed sink
/// prints "<tool>: cannot ..." on stderr and turns a zero `exit_code` into
/// 1 before the ledger append, so the ledger never reports success for a
/// run whose record file was lost. False if any sink failed.
bool PublishRunRecord(RunRecord* record, const std::string& record_path,
                      const std::string& ledger_path, const char* tool);

/// Fault hook for the crash test: the next AppendToLedger writes only
/// `bytes` bytes of the staged temp file and returns false WITHOUT
/// renaming — exactly what a crash mid-write leaves behind.
void FailNextAppendForTest(size_t bytes);

/// Diffs two parsed run records (ledger lines from ParseJson). Returns
/// one human-readable line per regression-relevant difference: counter
/// deltas, per-dependency profile deltas
/// keyed by (pipeline, dependency) over searches, matches, backtracks,
/// fired and skipped, cost-model deltas, budget-outcome, exit-code and
/// fingerprint changes. Empty means the runs are telemetry-identical —
/// `qimap_cli report diff` exits 0 exactly then.
std::vector<std::string> DiffLedgerEntries(const JsonValue& a,
                                           const JsonValue& b);

/// The run-metadata stamp as a rendered JSON object:
/// {"qimap_version": "0.3.0", "build_type": "Release"}.
/// The record's `meta`, and the header of the journal and progress
/// streams, the trace and the bench summary.
std::string RunMetaJson();

/// Writes `data` to `path` atomically: the bytes land in `path.tmp` first
/// and rename(2) into place only on a fully successful write, so a crash
/// or cancellation never leaves a torn artifact. False on I/O error (the
/// temp file is removed).
bool WriteFileAtomic(const std::string& path, const std::string& data);

}  // namespace obs
}  // namespace qimap

#endif  // QIMAP_OBS_RUN_RECORD_H_
