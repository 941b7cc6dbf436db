#ifndef QIMAP_OBS_PIPELINE_RUN_H_
#define QIMAP_OBS_PIPELINE_RUN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
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
  /// Appended to the step-limit message.
  const char* hint = "";
};

/// One pipeline call's observability scope: the trace span, the journal
/// run, the step guard and the heartbeats, set up once at the entry of
/// `Chase`, `DisjunctiveChase`, `ChaseWithTargetConstraints`, `MinGen`,
/// `QuasiInverse`, `InverseAlgorithm`, `LavQuasiInverse` and
/// `CheckContainment`. Profiler entries register under the spec's
/// pipeline name.
///
/// The guard is the call's own step, null and byte counts plus its
/// `max_steps` valve, in front of the caller's shared `Budget` (if any),
/// the only `Budget` the call touches. A step counts once both the valve
/// and the shared budget admit it, the rule `Budget::Tick` applies to its
/// own limit: the refused tick is not counted. That one count is
/// `steps()`, the heartbeats' `steps` and the journal's budget event.
/// Nulls and bytes are counted before the shared budget is charged. A
/// call runs on one thread, so the counts are plain integers.
///
/// The destructor emits the run's final heartbeat, which calls the
/// sampler. Declare every local the sampler reads (the engine's stats
/// struct, its counts) before the scope, so they outlive it. Sample
/// counts, not the result under construction: `return result;` moves the
/// result out before the destructor runs.
class PipelineRun {
 public:
  /// Reads the engine's stats struct for a heartbeat; called only from
  /// Tick() and the destructor, on the engine's thread.
  using Sampler = std::function<ProgressSample()>;

  /// `spec`'s strings must outlive the run (string literals). `max_steps`
  /// is the run's step valve (0 = none); `shared` is the caller's budget
  /// (may be null), also the source of the heartbeats' consumed-fraction
  /// display.
  PipelineRun(const PipelineSpec& spec, size_t max_steps, Budget* shared,
              Sampler sampler);
  PipelineRun(const PipelineRun&) = delete;
  PipelineRun& operator=(const PipelineRun&) = delete;
  ~PipelineRun();

  /// Charges one step: the valve, then the shared budget. Emits a
  /// heartbeat every `interval` counted steps.
  Status Tick() {
    if (valve_tripped_) return ValveStatus();
    if (max_steps_ != 0 && steps_ >= max_steps_) {
      valve_tripped_ = true;
      return ValveStatus();
    }
    if (shared_ != nullptr) {
      QIMAP_RETURN_IF_ERROR(shared_->Tick(spec_.budget, spec_.hint));
    }
    ++steps_;
    if (heartbeat_interval_ != 0 && steps_ % heartbeat_interval_ == 0) {
      Heartbeat(/*is_final=*/false);
    }
    return Status::OK();
  }
  Status Check() {
    if (valve_tripped_) return ValveStatus();
    return shared_ != nullptr ? shared_->Check(spec_.budget) : Status::OK();
  }
  Status ChargeNulls(size_t count) {
    if (valve_tripped_) return ValveStatus();
    nulls_ += count;
    return shared_ != nullptr ? shared_->ChargeNulls(spec_.budget, count)
                              : Status::OK();
  }
  Status ChargeMemory(size_t bytes) {
    if (valve_tripped_) return ValveStatus();
    bytes_ += bytes;
    return shared_ != nullptr ? shared_->ChargeMemory(spec_.budget, bytes)
                              : Status::OK();
  }
  /// Steps this run performed.
  size_t steps() const { return steps_; }
  bool exhausted() const { return tripped() != BudgetLimit::kNone; }

  /// Sets (or refines) the heartbeats' total-steps estimate.
  void SetTotalEstimate(uint64_t total) { total_estimate_ = total; }

  /// The run's provenance journal. The journal run, and with it its run
  /// id, starts at the first call: a pipeline that calls others asks for
  /// it first, so its run id precedes theirs. MinGen asks only once it
  /// has a result or a trip, so a call it rejects takes no run id.
  JournalRun& journal() {
    if (!journal_.has_value()) journal_.emplace(spec_.pipeline);
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
  /// The valve's sticky trip status.
  Status ValveStatus() const {
    return Status::ResourceExhausted(
        StepLimitMessage(spec_.budget, max_steps_, spec_.hint));
  }
  /// The valve's limit if it tripped, else the shared budget's.
  BudgetLimit tripped() const {
    if (valve_tripped_) return BudgetLimit::kSteps;
    return shared_ != nullptr ? shared_->tripped() : BudgetLimit::kNone;
  }
  void Heartbeat(bool is_final);

  PipelineSpec spec_;
  TraceSpan span_;
  std::optional<JournalRun> journal_;
  // The guard.
  Budget* shared_;
  size_t max_steps_;
  size_t steps_ = 0;
  size_t nulls_ = 0;
  size_t bytes_ = 0;
  bool valve_tripped_ = false;
  // The heartbeats; `heartbeat_interval_` is 0 when progress was
  // disabled at construction.
  uint64_t heartbeat_interval_ = 0;
  uint64_t total_estimate_ = 0;
  uint64_t start_us_ = 0;
  Sampler sampler_;
};

}  // namespace obs
}  // namespace qimap

#endif  // QIMAP_OBS_PIPELINE_RUN_H_
