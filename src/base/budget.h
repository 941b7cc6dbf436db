#ifndef QIMAP_BASE_BUDGET_H_
#define QIMAP_BASE_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "base/fault.h"
#include "base/status.h"

namespace qimap {

/// Resource governance for the chase engines and inversion pipelines.
///
/// The chase-based procedures behind Theorems 4.1 and 5.1 and the
/// disjunctive chase of Section 6 are worst-case exponential, so every
/// engine runs under a guard instead of running to completion. A `Budget`
/// bounds four resources at once — chase steps, wall-clock time (via an
/// injectable clock), approximate memory bytes, and generated labeled
/// nulls — and observes a cooperative `Cancellation` token, which trigger
/// collection also checks before each dependency. The caller attaches one
/// `Budget` to a pipeline's options, and it may be shared across a whole
/// pipeline composition (QuasiInverse -> its MinGen searches) so the
/// limits bound the end-to-end run, not each stage separately.
///
/// Each pipeline call charges it through its `obs::PipelineRun`
/// (obs/pipeline_run.h), which also enforces the call's own `max_steps`
/// option as a step valve and counts the call's own steps.
///
/// A budget trips at most once and is sticky: the first limit violation
/// records which limit tripped and every later check returns the same
/// structured status (`ResourceExhausted`, or `Cancelled` for the token).
/// Engines translate a trip into a best-effort partial result flagged
/// `partial = true` plus a `budget` journal event and `budget.*` metrics
/// (`obs::PipelineRun::Trip`).

/// Which resource limit tripped a Budget.
enum class BudgetLimit : uint8_t {
  kNone = 0,
  kSteps,      ///< chase-step / candidate count
  kDeadline,   ///< wall-clock deadline
  kMemory,     ///< approximate bytes charged
  kNulls,      ///< generated labeled nulls
  kCancelled,  ///< the cooperative cancellation token
  kFault,      ///< an injected fault (base/fault.h)
};

/// Short lowercase name used as the `budget.exhausted.<name>` metric
/// suffix and the journal event's dependency field: "steps", "deadline",
/// "memory", "nulls", "cancelled", "fault" ("none" for kNone).
const char* BudgetLimitName(BudgetLimit limit);

/// A cooperative cancellation token shared between a controller and the
/// pipelines it governs. Thread-safe, so a controller on another thread
/// may cancel; every budget check observes it.
class Cancellation {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Re-arms the token (tests reuse one across runs).
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The limits a Budget enforces. A zero limit means "unlimited". The
/// deadline is measured from Budget construction by `clock`, which tests
/// inject to make deadline trips deterministic; the default reads the
/// monotonic steady clock.
struct BudgetSpec {
  size_t max_steps = 0;
  /// Wall-clock deadline in microseconds since construction.
  uint64_t deadline_us = 0;
  size_t max_memory_bytes = 0;
  size_t max_nulls = 0;
  /// Monotone microsecond clock; empty = std::chrono::steady_clock.
  std::function<uint64_t()> clock;
  /// Observed, not owned; may be null.
  Cancellation* cancellation = nullptr;
  /// Deterministic fault injection (inactive by default).
  FaultPlan fault_plan;

  /// A spec with only a step limit set.
  static BudgetSpec StepsOnly(size_t max_steps) {
    BudgetSpec spec;
    spec.max_steps = max_steps;
    return spec;
  }
};

/// The shared guard. All charge/check methods are thread-safe (relaxed
/// atomics on the hot path, a mutex only on the cold trip path) and
/// sticky: after the first trip every call returns the same status.
class Budget {
 public:
  Budget() : Budget(BudgetSpec{}) {}
  explicit Budget(BudgetSpec spec);
  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  /// Charges one chase step for pipeline `what` ("standard chase",
  /// "MinGen", ...). Checks, in order: sticky trip, cancellation,
  /// deadline, then the step limit. The tick that would exceed the limit
  /// is refused and NOT counted, so `steps()` reports work actually
  /// performed (a tripped budget reports exactly `max_steps`).
  /// `hint` is appended to the step-limit message (normalized to exactly
  /// one separating space).
  Status Tick(const char* what, const char* hint = "");

  /// Charges `count` freshly minted labeled nulls (after minting; the
  /// partial result keeps them).
  Status ChargeNulls(const char* what, size_t count = 1);

  /// Charges `bytes` of approximate memory growth. Also the
  /// FaultSite::kAllocCheckpoint injection point.
  Status ChargeMemory(const char* what, size_t bytes);

  /// Charge-free check (sticky trip, cancellation, deadline). Engines
  /// call it between fixpoint rounds and disjunctive levels.
  Status Check(const char* what);

  /// FaultSite::kTriggerBatch injection point; one call per dependency
  /// batch consumed. Also performs Check().
  Status OnTriggerBatch(const char* what);

  /// FaultSite::kPoolTask injection point; one call per dependency body,
  /// before it is collected. Also performs Check().
  Status OnPoolTask(const char* what);

  bool exhausted() const { return tripped() != BudgetLimit::kNone; }
  BudgetLimit tripped() const {
    return tripped_.load(std::memory_order_relaxed);
  }
  size_t steps() const { return steps_.load(std::memory_order_relaxed); }
  size_t nulls() const { return nulls_.load(std::memory_order_relaxed); }
  size_t memory_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Microseconds since construction, per the spec's clock.
  uint64_t elapsed_us() const;
  /// The limits this budget enforces (progress heartbeats derive the
  /// consumed-fraction display from consumed counts over these).
  const BudgetSpec& spec() const { return spec_; }

  /// Renders usage for diagnostics / journal events:
  /// "steps=12, nulls=3, bytes=456, elapsed_us=789".
  std::string UsageString() const;

 private:
  Status Trip(BudgetLimit limit, std::string message);
  Status StickyStatus() const;
  Status Fault(FaultSite site, std::atomic<uint64_t>& hits,
               const char* what);

  BudgetSpec spec_;
  uint64_t start_us_ = 0;
  std::atomic<size_t> steps_{0};
  std::atomic<size_t> nulls_{0};
  std::atomic<size_t> bytes_{0};
  std::atomic<uint64_t> alloc_hits_{0};
  std::atomic<uint64_t> batch_hits_{0};
  std::atomic<uint64_t> task_hits_{0};
  std::atomic<BudgetLimit> tripped_{BudgetLimit::kNone};
  // First-tripper-wins metadata, written once under trip_mu_ and
  // published by the store to tripped_.
  mutable std::mutex trip_mu_;
  StatusCode trip_code_ = StatusCode::kResourceExhausted;
  std::string trip_message_;
};

/// Approximate bytes a stored fact of the given arity costs (tuple
/// payload plus per-fact index overhead) — the unit the engines charge
/// `ChargeMemory` with. Deliberately coarse: the memory budget bounds
/// instance growth, it is not an allocator.
constexpr size_t ApproxFactBytes(size_t arity, size_t value_bytes) {
  return 64 + arity * value_bytes;
}

/// The step-limit trip message, "<what> exceeded its step limit (N
/// steps)", followed by `hint` with exactly one separating space however
/// the caller spelled it. `Budget::Tick` and a pipeline call's own step
/// valve (obs::PipelineRun) both trip with it.
std::string StepLimitMessage(const char* what, size_t max_steps,
                             const char* hint);

/// "steps=12, nulls=3, bytes=456": the counts `Budget::UsageString` and a
/// pipeline call's `budget` journal event report.
std::string UsageCounts(size_t steps, size_t nulls, size_t bytes);

}  // namespace qimap

#endif  // QIMAP_BASE_BUDGET_H_
