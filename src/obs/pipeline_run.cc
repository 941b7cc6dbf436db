#include "obs/pipeline_run.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace qimap {
namespace obs {

PipelineRun::PipelineRun(const PipelineSpec& spec, size_t max_steps,
                         Budget* shared, ProgressRun::Sampler sampler)
    : pipeline_(spec.pipeline),
      span_(spec.span),
      guard_(spec.budget, max_steps, shared, spec.hint),
      progress_(spec.pipeline, std::move(sampler), shared) {}

uint32_t PipelineRun::RegisterDep(const std::string& text,
                                  uint32_t body_atoms) const {
  return Profiler::RegisterDep(pipeline_, text, body_atoms);
}

void PipelineRun::Trip(const Status& status, bool partial) {
  BudgetLimit limit = guard_.tripped();
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
                             guard_.UsageString());
  }
}

}  // namespace obs
}  // namespace qimap
