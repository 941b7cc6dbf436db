#include "core/containment.h"

#include <algorithm>
#include <string>
#include <utility>

#include "chase/chase.h"
#include "obs/metrics.h"
#include "obs/pipeline_run.h"
#include "obs/profiler.h"
#include "relational/atom.h"
#include "relational/homomorphism.h"

namespace qimap {
namespace {

constexpr obs::PipelineSpec kRun = {"containment/run", "containment",
                                    "Containment"};

// Freezes the lhs variables of a conclusion dependency to fresh, pairwise
// distinct constants. Chasing the frozen canonical instance (instead of
// the variable one that core/implication.cc uses) makes a negative
// verdict directly reusable: the instance is ground, so it IS the
// counterexample source instance.
Assignment FreezeLhs(const Tgd& sigma) {
  Assignment frozen;
  size_t next = 0;
  for (const Value& v : VariablesOf(sigma.lhs)) {
    ++next;
    frozen.emplace(v, Value::MakeConstant("#f" + std::to_string(next)));
  }
  return frozen;
}

bool SameSchema(const SchemaPtr& a, const SchemaPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return a->ToString() == b->ToString();
}

}  // namespace

std::string ContainmentReport::Summary() const {
  if (holds) {
    std::string out = "contained (" + std::to_string(tgds_checked) +
                      " dependencies, " + std::to_string(chases) +
                      " chases, " + std::to_string(syntactic_hits) +
                      " syntactic)";
    if (partial) out += " [partial]";
    return out;
  }
  std::string out = "NOT contained; first violated dependency: " + witness;
  if (partial) out += " [partial]";
  return out;
}

Result<ContainmentReport> CheckContainment(const SchemaMapping& sub,
                                           const SchemaMapping& super,
                                           const ContainmentOptions& options) {
  static const obs::MetricId kRuns =
      obs::RegisterCounter("containment.runs");
  static const obs::MetricId kChecked =
      obs::RegisterCounter("containment.tgds_checked");
  static const obs::MetricId kChases =
      obs::RegisterCounter("containment.chases");
  static const obs::MetricId kSyntactic =
      obs::RegisterCounter("containment.syntactic_hits");
  static const obs::MetricId kViolations =
      obs::RegisterCounter("containment.violations");
  ContainmentReport report;
  report.holds = true;
  // Heartbeats: one step per conclusion dependency decided; the inner
  // chases emit their own runs. They sample `decided`, not `report`,
  // which is moved out before the final one.
  size_t decided = 0;
  obs::PipelineRun run(kRun, 0, options.budget, [&decided]() {
    obs::ProgressSample sample;
    sample.fired = decided;
    return sample;
  });
  auto& journal = run.journal();
  obs::CounterAdd(kRuns);

  if (!SameSchema(sub.source, super.source) ||
      !SameSchema(sub.target, super.target)) {
    return Status::FailedPrecondition(
        "CheckContainment requires mappings over the same schemas");
  }

  // Ends the check on a budget trip: journal + budget.* metrics, then the
  // verdicts reached so far as the best-effort partial result.
  auto trip = [&](Status status) -> Status {
    run.Trip(status, options.partial_out != nullptr);
    report.partial = true;
    if (options.partial_out != nullptr) {
      *options.partial_out = std::move(report);
    }
    return status;
  };
  ChaseOptions chase_options;
  chase_options.budget = options.budget;

  for (size_t index = 0; index < super.tgds.size(); ++index) {
    const Tgd& sigma = super.tgds[index];
    std::string sigma_text = TgdToString(sigma, *super.source, *super.target);
    // Profiling: one entry per conclusion dependency; the chase of its
    // frozen canonical instance attributes its own dependencies on top.
    uint32_t prof_dep = obs::kProfileNoDep;
    if (obs::Profiler::Enabled()) {
      prof_dep = run.RegisterDep(sigma_text, sigma.lhs.size());
    }
    obs::ProfiledDepScope prof_scope(prof_dep, obs::ProfilePhase::kFire);
    {
      Status tick = run.Tick();
      if (!tick.ok()) return trip(std::move(tick));
    }
    obs::CounterAdd(kChecked);

    ContainmentVerdict verdict;
    verdict.index = index;
    verdict.dependency = sigma_text;

    // Syntactic fast path: a dependency of Sigma is implied for free.
    if (std::find(sub.tgds.begin(), sub.tgds.end(), sigma) !=
        sub.tgds.end()) {
      verdict.implied = true;
      verdict.syntactic = true;
      ++report.syntactic_hits;
      obs::CounterAdd(kSyntactic);
    } else {
      // The chase test: chase the frozen canonical instance of
      // `sigma.lhs` with Sigma and ask whether `sigma.rhs` (with the
      // frontier frozen the same way) embeds into the result.
      Assignment frozen = FreezeLhs(sigma);
      Conjunction ground_lhs =
          ApplyAssignmentToConjunction(sigma.lhs, frozen);
      Instance canonical = CanonicalInstance(ground_lhs, sub.source);
      ++report.chases;
      obs::CounterAdd(kChases);
      Result<Instance> chase = Chase(canonical, sub, chase_options);
      if (!chase.ok()) {
        // The inner chase journals and reports its own trip; `trip` then
        // hands the caller the verdicts reached before the budget ran
        // out.
        Status status = chase.status();
        if (run.exhausted() ||
            status.code() == StatusCode::kResourceExhausted ||
            status.code() == StatusCode::kCancelled) {
          return trip(std::move(status));
        }
        return status;
      }
      Instance chased = std::move(chase).value();
      Conjunction mapped_rhs =
          ApplyAssignmentToConjunction(sigma.rhs, frozen);
      // Only the existentials remain as variables; the frozen frontier
      // constants must match themselves.
      HomSearchOptions hom_options;
      verdict.implied = HasHomomorphism(mapped_rhs, chased, {}, hom_options);
      if (!verdict.implied && report.holds) {
        report.holds = false;
        report.witness = sigma_text;
        report.counterexample = std::move(canonical);
        report.counterexample_chase = std::move(chased);
      }
      if (!verdict.implied) obs::CounterAdd(kViolations);
    }

    if (journal.active()) {
      uint64_t dep_id = journal.RecordBaseFact(sigma_text);
      journal.RecordRule(verdict.implied ? "implied" : "violated",
                         sigma_text, static_cast<int32_t>(index),
                         verdict.syntactic ? "syntactic" : "chase test",
                         {dep_id});
    }
    obs::ProfileRecordOutcomes(prof_dep, 1, verdict.implied ? 1 : 0,
                               verdict.implied ? 0 : 1);
    ++report.tgds_checked;
    report.verdicts.push_back(std::move(verdict));
    ++decided;
  }
  return report;
}

Result<bool> MappingContained(const SchemaMapping& sub,
                              const SchemaMapping& super) {
  QIMAP_ASSIGN_OR_RETURN(ContainmentReport report,
                         CheckContainment(sub, super));
  return report.holds;
}

}  // namespace qimap
