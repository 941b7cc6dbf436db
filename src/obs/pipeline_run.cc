#include "obs/pipeline_run.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace qimap {
namespace obs {

PipelineRun::PipelineRun(const PipelineSpec& spec, size_t max_steps,
                         Budget* shared, Sampler sampler)
    : spec_(spec),
      span_(spec.span),
      shared_(shared),
      max_steps_(max_steps),
      sampler_(std::move(sampler)) {
  heartbeat_interval_ = internal::StartHeartbeats(&start_us_);
}

PipelineRun::~PipelineRun() {
  if (heartbeat_interval_ != 0) Heartbeat(/*is_final=*/true);
}

void PipelineRun::Heartbeat(bool is_final) {
  internal::EmitHeartbeat(spec_.pipeline, is_final, steps_, total_estimate_,
                          start_us_, sampler_, shared_);
}

uint32_t PipelineRun::RegisterDep(const std::string& text,
                                  uint32_t body_atoms) const {
  return Profiler::RegisterDep(spec_.pipeline, text, body_atoms);
}

void PipelineRun::Trip(const Status& status, bool partial) {
  BudgetLimit limit = tripped();
  if (limit == BudgetLimit::kNone) return;

  static const MetricId kExhausted = RegisterCounter("budget.exhausted");
  static const MetricId kPartial = RegisterCounter("budget.partial_results");
  CounterAdd(kExhausted);
  // Per-limit counters are registered by name on demand: trips are cold
  // paths, so the registry lookup needs no static cache.
  CounterAdd(RegisterCounter(std::string("budget.exhausted.") +
                             BudgetLimitName(limit)));
  if (partial) CounterAdd(kPartial);

  JournalRun& run_journal = journal();
  if (run_journal.active()) {
    run_journal.RecordBudget(status.message(), BudgetLimitName(limit),
                             UsageCounts(steps_, nulls_, bytes_));
  }
}

}  // namespace obs
}  // namespace qimap
