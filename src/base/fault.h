#ifndef QIMAP_BASE_FAULT_H_
#define QIMAP_BASE_FAULT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/status.h"

namespace qimap {

/// Deterministic fault-injection sites inside the chase and inversion
/// pipelines. A `FaultPlan` names one site and an ordinal; the Nth time
/// execution passes that site the attached `Budget` trips (or cancels its
/// token), letting tests drive exhaustion and mid-run cancellation paths
/// on demand instead of hoping a tight limit lands in the right place.
enum class FaultSite : uint8_t {
  kNone = 0,
  /// A memory-accounting checkpoint: every `Budget::ChargeMemory` call
  /// (the engines charge one per stored fact / copied branch).
  kAllocCheckpoint,
  /// One per dependency whose trigger batch is consumed by a chase round.
  kTriggerBatch,
  /// One per dependency body, before it is collected.
  kPoolTask,
};

/// Short name used in plan strings and messages: "alloc", "batch", "task"
/// ("none" for kNone).
const char* FaultSiteName(FaultSite site);

/// A parsed fault plan: "fail the `nth` pass through `site`". Inactive by
/// default (site = kNone or nth = 0). The optional `cancel` action makes
/// the fault cancel the budget's `Cancellation` token instead of tripping
/// the budget directly — the pipeline then winds down at its next
/// cooperative check, exactly like an external cancel.
struct FaultPlan {
  FaultSite site = FaultSite::kNone;
  /// 1-based ordinal of the site pass that faults; 0 disables the plan.
  uint64_t nth = 0;
  bool cancel = false;

  bool active() const { return site != FaultSite::kNone && nth != 0; }

  /// Renders "alloc:3", "task:5:cancel", or "none" when inactive.
  std::string ToString() const;

  /// Parses "<site>:<nth>[:cancel]" with site in {alloc, batch, task},
  /// e.g. "alloc:3", "batch:1", "task:5:cancel". InvalidArgument on
  /// anything else.
  static Result<FaultPlan> Parse(std::string_view text);

  /// Reads `QIMAP_FAULT_PLAN` from the environment; inactive plan when
  /// the variable is unset, empty, or unparsable (a bad plan must never
  /// turn a production run into a crash).
  static FaultPlan FromEnv();
};

}  // namespace qimap

#endif  // QIMAP_BASE_FAULT_H_
