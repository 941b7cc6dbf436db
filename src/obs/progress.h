#ifndef QIMAP_OBS_PROGRESS_H_
#define QIMAP_OBS_PROGRESS_H_

#include <cstdint>
#include <functional>
#include <string>

namespace qimap {

class Budget;

namespace obs {

/// Live progress heartbeats for the chase engines and inversion
/// pipelines. Every engine's serial firing loop already ticks its
/// pipeline call's obs::PipelineRun; every `interval` counted steps that
/// scope emits a snapshot — facts written, nulls minted, triggers
/// fired/skipped, the consumed fraction of the attached budget, and an
/// ETA against the pipeline's total-steps estimate — to any combination
/// of a stderr status line (TTY-aware), a JSONL stream, and an in-process
/// sink (tests).
///
/// Determinism contract, same as every obs surface: snapshots are taken
/// in the engines' firing loops, counters come from the engines' own
/// stats structs, and the clock is injectable — so the canonical
/// (timing-free) rendering of every heartbeat is byte-identical across
/// runs of the same input.
///
/// Disabled (the default) heartbeats cost one branch per counted step.

/// The engine-side counters a heartbeat samples. Each pipeline fills
/// this from its own stats struct via the sampler callback.
struct ProgressSample {
  uint64_t facts = 0;    ///< facts written so far
  uint64_t nulls = 0;    ///< labeled nulls minted so far
  uint64_t fired = 0;    ///< triggers fired (or candidates kept)
  uint64_t skipped = 0;  ///< triggers skipped (or candidates pruned)
};

/// One heartbeat. `seq` is process-monotone across runs (strictly
/// increasing within a stream; Progress::Reset() rewinds it).
struct ProgressSnapshot {
  uint64_t seq = 0;
  std::string pipeline;  ///< e.g. "chase/standard", "mingen"
  bool is_final = false;  ///< emitted by the run's destructor
  uint64_t steps = 0;
  uint64_t facts = 0;
  uint64_t nulls = 0;
  uint64_t fired = 0;
  uint64_t skipped = 0;
  /// Total-steps estimate (chase: the exact merged-batch total once
  /// triggers are collected; QuasiInverse: its sigma-star member count).
  /// 0 = unknown, as in a chase whose trigger collection tripped.
  uint64_t total_estimate = 0;
  /// Largest consumed fraction across the attached budget's bounded
  /// counter limits (steps, nulls, memory) in [0, 1]; -1 when no bounded
  /// budget is attached. Deadline consumption is deliberately excluded —
  /// it is timing and would break canonical byte-identity.
  double budget_fraction = -1.0;
  uint64_t elapsed_us = 0;  ///< since run start, per the injected clock
  uint64_t eta_us = 0;      ///< elapsed * (total - steps) / steps; 0 unknown

  /// One JSON object (one JSONL line without the trailing newline).
  /// `canonical` omits the timing fields (`elapsed_us`, `eta_us`),
  /// leaving only fields byte-identical across runs.
  std::string ToJson(bool canonical) const;

  /// The stderr status line (no leading \r / trailing newline).
  std::string ToLine() const;
};

/// Process-wide progress configuration, set once by the CLI (or a test)
/// before the pipelines run.
struct ProgressConfig {
  /// Steps between heartbeats. The final snapshot is emitted regardless.
  uint64_t interval = 4096;
  /// Render a live status line to stderr. Self-suppresses when stderr is
  /// not a TTY (ctest / piped output stays clean) unless the
  /// QIMAP_PROGRESS_FORCE_TTY environment variable overrides.
  bool stderr_line = false;
  /// JSONL heartbeat stream path; opened (truncated) on the first emit
  /// with a `{"meta": ...}` header line. Empty = no stream.
  std::string jsonl_path;
  /// Monotone microsecond clock; empty = std::chrono::steady_clock.
  std::function<uint64_t()> clock;
  /// In-process test hook; receives every snapshot.
  std::function<void(const ProgressSnapshot&)> sink;
};

class Progress {
 public:
  /// Turns heartbeats on.
  static void Enable();
  /// Turns heartbeats off and closes the JSONL stream.
  static void Disable();
  static bool Enabled();
  /// Replaces the process-wide configuration (closes any open stream).
  static void Configure(const ProgressConfig& config);
  /// Disables, restores the default configuration, rewinds `seq`.
  static void Reset();

  /// Flushes and closes the JSONL stream, if open (idempotent). Returns
  /// false if opening, writing or closing the stream failed since it was
  /// last closed; a run that emitted no heartbeat never opened it.
  static bool CloseStream();
};

namespace internal {

/// Starts a pipeline call's heartbeats: returns the steps between them,
/// 0 when progress is disabled (the call then emits none), and otherwise
/// sets `*start_us` from the progress clock.
uint64_t StartHeartbeats(uint64_t* start_us);

/// Assembles one heartbeat of a pipeline call from its counters and
/// emits it. `steps` is the call's counted steps, `sampler` reads the
/// engine's stats struct (may be empty), and `budget` is the caller's
/// shared budget (may be null), the source of the consumed-fraction
/// display. obs::PipelineRun calls it every `interval` steps and once,
/// final, from its destructor.
void EmitHeartbeat(const char* pipeline, bool is_final, uint64_t steps,
                   uint64_t total_estimate, uint64_t start_us,
                   const std::function<ProgressSample()>& sampler,
                   const Budget* budget);

}  // namespace internal

}  // namespace obs
}  // namespace qimap

#endif  // QIMAP_OBS_PROGRESS_H_
