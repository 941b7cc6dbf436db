#include "base/budget.h"

#include <chrono>
#include <utility>

namespace qimap {
namespace {

uint64_t SteadyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string StepLimitMessage(const char* what, size_t max_steps,
                             const char* hint) {
  std::string message = std::string(what) + " exceeded its step limit (" +
                        std::to_string(max_steps) + " steps)";
  if (hint == nullptr) return message;
  while (*hint == ' ') ++hint;
  if (*hint != '\0') message += std::string(" ") + hint;
  return message;
}

std::string UsageCounts(size_t steps, size_t nulls, size_t bytes) {
  return "steps=" + std::to_string(steps) + ", nulls=" +
         std::to_string(nulls) + ", bytes=" + std::to_string(bytes);
}

const char* BudgetLimitName(BudgetLimit limit) {
  switch (limit) {
    case BudgetLimit::kNone:
      return "none";
    case BudgetLimit::kSteps:
      return "steps";
    case BudgetLimit::kDeadline:
      return "deadline";
    case BudgetLimit::kMemory:
      return "memory";
    case BudgetLimit::kNulls:
      return "nulls";
    case BudgetLimit::kCancelled:
      return "cancelled";
    case BudgetLimit::kFault:
      return "fault";
  }
  return "none";
}

Budget::Budget(BudgetSpec spec) : spec_(std::move(spec)) {
  // Only pay a clock read at construction when a deadline can trip.
  if (spec_.deadline_us != 0 || spec_.clock) {
    start_us_ = spec_.clock ? spec_.clock() : SteadyNowUs();
  }
}

uint64_t Budget::elapsed_us() const {
  uint64_t now = spec_.clock ? spec_.clock() : SteadyNowUs();
  return now >= start_us_ ? now - start_us_ : 0;
}

std::string Budget::UsageString() const {
  std::string usage = UsageCounts(steps(), nulls(), memory_bytes());
  if (spec_.deadline_us != 0 || spec_.clock) {
    usage += ", elapsed_us=" + std::to_string(elapsed_us());
  }
  return usage;
}

Status Budget::Trip(BudgetLimit limit, std::string message) {
  Status status = limit == BudgetLimit::kCancelled
                      ? Status::Cancelled(message)
                      : Status::ResourceExhausted(message);
  BudgetLimit expected = BudgetLimit::kNone;
  {
    std::lock_guard<std::mutex> lock(trip_mu_);
    // The metadata is written before tripped_ publishes it, so a sticky
    // read under the same mutex always sees a consistent pair.
    if (tripped_.compare_exchange_strong(expected, limit,
                                         std::memory_order_relaxed)) {
      trip_code_ = status.code();
      trip_message_ = status.message();
      return status;
    }
  }
  // Another thread tripped first; its limit is the budget's verdict.
  return StickyStatus();
}

Status Budget::StickyStatus() const {
  std::lock_guard<std::mutex> lock(trip_mu_);
  return Status(trip_code_, trip_message_);
}

Status Budget::Check(const char* what) {
  if (exhausted()) return StickyStatus();
  if (spec_.cancellation != nullptr && spec_.cancellation->cancelled()) {
    return Trip(BudgetLimit::kCancelled,
                std::string(what) + " was cancelled");
  }
  if (spec_.deadline_us != 0 && elapsed_us() > spec_.deadline_us) {
    return Trip(BudgetLimit::kDeadline,
                std::string(what) + " exceeded its deadline (" +
                    std::to_string(spec_.deadline_us / 1000) + " ms)");
  }
  return Status::OK();
}

Status Budget::Tick(const char* what, const char* hint) {
  QIMAP_RETURN_IF_ERROR(Check(what));
  if (spec_.max_steps != 0 &&
      steps_.load(std::memory_order_relaxed) >= spec_.max_steps) {
    return Trip(BudgetLimit::kSteps,
                StepLimitMessage(what, spec_.max_steps, hint));
  }
  steps_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Budget::ChargeNulls(const char* what, size_t count) {
  if (exhausted()) return StickyStatus();
  size_t total = nulls_.fetch_add(count, std::memory_order_relaxed) + count;
  if (spec_.max_nulls != 0 && total > spec_.max_nulls) {
    return Trip(BudgetLimit::kNulls,
                std::string(what) + " exceeded its null budget (" +
                    std::to_string(spec_.max_nulls) + " nulls)");
  }
  return Status::OK();
}

Status Budget::ChargeMemory(const char* what, size_t bytes) {
  if (exhausted()) return StickyStatus();
  QIMAP_RETURN_IF_ERROR(Fault(FaultSite::kAllocCheckpoint, alloc_hits_,
                              what));
  size_t total = bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (spec_.max_memory_bytes != 0 && total > spec_.max_memory_bytes) {
    return Trip(BudgetLimit::kMemory,
                std::string(what) + " exceeded its memory budget (" +
                    std::to_string(spec_.max_memory_bytes) + " bytes)");
  }
  return Status::OK();
}

Status Budget::OnTriggerBatch(const char* what) {
  QIMAP_RETURN_IF_ERROR(Check(what));
  return Fault(FaultSite::kTriggerBatch, batch_hits_, what);
}

Status Budget::OnPoolTask(const char* what) {
  QIMAP_RETURN_IF_ERROR(Check(what));
  return Fault(FaultSite::kPoolTask, task_hits_, what);
}

Status Budget::Fault(FaultSite site, std::atomic<uint64_t>& hits,
                     const char* what) {
  const FaultPlan& plan = spec_.fault_plan;
  if (!plan.active() || plan.site != site) return Status::OK();
  uint64_t hit = hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (hit != plan.nth) return Status::OK();
  if (plan.cancel) {
    // The cancel action flips the token instead of failing in place; the
    // pipeline notices at its next cooperative check, exactly like an
    // external Cancel().
    if (spec_.cancellation != nullptr) spec_.cancellation->Cancel();
    return Status::OK();
  }
  return Trip(BudgetLimit::kFault, std::string(what) +
                                       " hit injected fault " +
                                       plan.ToString());
}

}  // namespace qimap
