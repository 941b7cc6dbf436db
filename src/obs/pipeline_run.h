#ifndef QIMAP_OBS_PIPELINE_RUN_H_
#define QIMAP_OBS_PIPELINE_RUN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "base/budget.h"
#include "base/status.h"
#include "obs/journal.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace qimap {
namespace obs {

/// The fixed names one pipeline's hooks carry. Each pipeline keeps its
/// spec as a constant; every name is part of the telemetry contract
/// (docs/observability.md).
struct PipelineSpec {
  /// Trace span, e.g. "quasi_inverse/run".
  const char* span;
  /// Journal, heartbeat and profiler pipeline, e.g. "quasi_inverse".
  const char* pipeline;
  /// The budget's name in its status messages, e.g. "QuasiInverse".
  const char* budget;
  /// Appended to the local step-limit message.
  const char* hint = "";
};

/// One pipeline call's observability scope: the trace span, the journal
/// run, the budget guard and the heartbeat run, set up once at the entry
/// of `Chase`, `DisjunctiveChase`, `ChaseWithTargetConstraints`, `MinGen`,
/// `QuasiInverse`, `InverseAlgorithm`, `LavQuasiInverse` and
/// `CheckContainment`. Profiler entries register under the spec's
/// pipeline name.
///
/// The destructor emits the run's final heartbeat, which calls the
/// sampler. Declare every local the sampler reads (the engine's stats
/// struct, its counts) before the scope, so they outlive it. Sample
/// counts, not the result under construction: `return result;` moves the
/// result out before the destructor runs.
class PipelineRun {
 public:
  /// `spec`'s strings must outlive the run (string literals). `max_steps`
  /// is the run-local step valve (0 = none); `shared` is the caller's
  /// budget (may be null), also the source of the heartbeats'
  /// consumed-fraction display.
  PipelineRun(const PipelineSpec& spec, size_t max_steps, Budget* shared,
              ProgressRun::Sampler sampler);
  PipelineRun(const PipelineRun&) = delete;
  PipelineRun& operator=(const PipelineRun&) = delete;

  /// Charges one step; when it passes, counts one heartbeat step.
  Status Tick() {
    Status status = guard_.Tick();
    if (status.ok()) progress_.Step();
    return status;
  }
  Status Check() { return guard_.Check(); }
  Status ChargeNulls(size_t count) { return guard_.ChargeNulls(count); }
  Status ChargeMemory(size_t bytes) { return guard_.ChargeMemory(bytes); }
  /// Steps this run performed (the local count).
  size_t steps() const { return guard_.steps(); }
  bool exhausted() const { return guard_.exhausted(); }

  /// Sets (or refines) the heartbeats' total-steps estimate.
  void SetTotalEstimate(uint64_t total) { progress_.SetTotalEstimate(total); }

  /// The run's provenance journal. The journal run, and with it its run
  /// id, starts at the first call: a pipeline that calls others asks for
  /// it first, so its run id precedes theirs. MinGen asks only once it
  /// has a result or a trip, so a call it rejects takes no run id.
  JournalRun& journal() {
    if (!journal_.has_value()) journal_.emplace(pipeline_);
    return *journal_;
  }

  /// Registers a profiler entry for `text` under this run's pipeline.
  /// Call only while the profiler is enabled.
  uint32_t RegisterDep(const std::string& text, uint32_t body_atoms) const;

  /// Reports a resource-budget trip: appends a `budget` event to the
  /// run's journal, so a governed run's event stream ends with the limit
  /// that stopped it, and counts the trip in the metrics registry:
  ///
  ///   budget.exhausted           every trip, whatever the limit
  ///   budget.exhausted.<limit>   per limit: steps / deadline / memory /
  ///                              nulls / cancelled / fault
  ///   budget.partial_results     trips where the engine handed back a
  ///                              best-effort partial result
  ///
  /// `status` is the status the engine is about to return; `partial` says
  /// whether a partial result was delivered. A no-op when the guard did
  /// not trip: plain errors are not budget events.
  void Trip(const Status& status, bool partial);

 private:
  const char* pipeline_;
  TraceSpan span_;
  std::optional<JournalRun> journal_;
  RunBudget guard_;
  ProgressRun progress_;
};

}  // namespace obs
}  // namespace qimap

#endif  // QIMAP_OBS_PIPELINE_RUN_H_
