#include "chase/target_chase.h"

#include <optional>
#include <string>
#include <vector>

#include "base/budget.h"
#include "chase/trigger_finder.h"
#include "obs/metrics.h"
#include "obs/pipeline_run.h"
#include "obs/profiler.h"
#include "relational/homomorphism.h"

namespace qimap {
namespace {

constexpr obs::PipelineSpec kRun = {"chase/target", "chase/target",
                                    "target chase",
                                    "(are the target tgds weakly acyclic?)"};

// Mirrors one run's totals into the process-wide metrics registry.
void FlushTargetChaseMetrics(const TargetChaseStats& st) {
  static const obs::MetricId kRuns = obs::RegisterCounter("tchase.runs");
  static const obs::MetricId kSteps = obs::RegisterCounter("tchase.steps");
  static const obs::MetricId kMerges =
      obs::RegisterCounter("tchase.egd_merges");
  static const obs::MetricId kFires =
      obs::RegisterCounter("tchase.tgd_fires");
  static const obs::MetricId kNulls =
      obs::RegisterCounter("tchase.nulls_minted");
  obs::CounterAdd(kRuns);
  obs::CounterAdd(kSteps, st.steps);
  obs::CounterAdd(kMerges, st.egd_merges);
  obs::CounterAdd(kFires, st.tgd_fires);
  obs::CounterAdd(kNulls, st.nulls_minted);
}

// One applicable target-tgd trigger: the lhs matches but no extension
// satisfies the rhs. Matches are tested in canonical (sorted) order so
// the fixpoint fires the same trigger regardless of enumeration order.
std::optional<Assignment> FindTgdTrigger(const Instance& inst,
                                         const Tgd& tgd,
                                         const HomSearchOptions& options,
                                         uint32_t prof_dep) {
  std::vector<Assignment> matches;
  {
    obs::ProfiledDepScope scope(prof_dep, obs::ProfilePhase::kCollect);
    matches = FindTriggers(tgd.lhs, inst, options);
    obs::ProfileRecordTriggers(prof_dep, matches.size());
  }
  obs::ProfiledDepScope scope(prof_dep, obs::ProfilePhase::kFire);
  for (const Assignment& h : matches) {
    if (!HasHomomorphism(tgd.rhs, inst, h, options)) {
      return h;
    }
    obs::ProfileRecordSkip(prof_dep);
  }
  return std::nullopt;
}

// One applicable egd trigger: a match whose required equalities do not
// all hold. Carries the two distinct values to merge plus the match
// itself (the provenance journal records the trigger bindings).
struct EgdTrigger {
  Value a;
  Value b;
  Assignment match;
};

std::optional<EgdTrigger> FindEgdTrigger(const Instance& inst,
                                         const Egd& egd,
                                         const HomSearchOptions& options,
                                         uint32_t prof_dep) {
  obs::ProfiledDepScope scope(prof_dep, obs::ProfilePhase::kCollect);
  for (const Assignment& h : FindTriggers(egd.lhs, inst, options)) {
    for (const auto& [x, y] : egd.equalities) {
      Value a = Resolve(h, x);
      Value b = Resolve(h, y);
      if (!(a == b)) return EgdTrigger{a, b, h};
    }
  }
  return std::nullopt;
}

}  // namespace

Result<TargetChaseResult> ChaseWithTargetConstraints(
    const Instance& source_inst, const SchemaMapping& m,
    const TargetConstraints& constraints,
    const TargetChaseOptions& options) {
  TargetChaseStats st;
  Instance target_inst(m.target);
  // The size `target_inst` had when it was handed to the caller: the
  // final heartbeat runs after that move.
  std::optional<size_t> handed_facts;
  // Heartbeats for the fixpoint phase (the s-t phase below emits its
  // own). No total estimate: target-constraint fixpoints have no cheap
  // upper bound short of weak-acyclicity analysis.
  obs::PipelineRun run(kRun, options.max_steps, options.budget,
                       [&st, &target_inst, &handed_facts]() {
                         obs::ProgressSample sample;
                         sample.facts =
                             handed_facts.value_or(target_inst.NumFacts());
                         sample.nulls = st.nulls_minted;
                         sample.fired = st.tgd_fires + st.egd_merges;
                         return sample;
                       });
  auto& journal = run.journal();

  ChaseOptions st_options;
  st_options.budget = options.budget;
  // A budget trip inside the s-t phase journals and reports itself; the
  // caller's partial_out then carries the s-t prefix.
  st_options.partial_out = options.partial_out;
  QIMAP_ASSIGN_OR_RETURN(target_inst, Chase(source_inst, m, st_options));
  uint32_t next_null =
      std::max(target_inst.MaxNullLabel(), source_inst.MaxNullLabel()) + 1;

  TargetChaseResult result{Instance(m.target), false, 0, {}};
  // Flush whatever was counted on every exit path, including errors.
  struct Flusher {
    TargetChaseStats* st;
    obs::PipelineRun* run;
    ~Flusher() {
      st->steps = run->steps();
      FlushTargetChaseMetrics(*st);
    }
  } flusher{&st, &run};

  auto hand_over = [&](Instance* out) {
    handed_facts = target_inst.NumFacts();
    *out = std::move(target_inst);
  };
  // Ends the fixpoint on a budget trip: journal + budget.* metrics, then
  // the instance closed so far as the best-effort partial solution.
  auto trip = [&](Status status) -> Status {
    st.partial = true;
    run.Trip(status, options.partial_out != nullptr);
    if (options.partial_out != nullptr) hand_over(options.partial_out);
    return status;
  };

  // Provenance: register the s-t chase output as this run's base facts
  // and pre-render the target constraints.
  std::vector<std::string> egd_texts;
  std::vector<std::string> ttgd_texts;
  if (journal.active()) {
    for (const Fact& fact : target_inst.Facts()) {
      journal.RecordBaseFact(FactToString(*m.target, fact));
    }
    for (const Egd& egd : constraints.egds) {
      egd_texts.push_back(EgdToString(egd, *m.target));
    }
    for (const Tgd& tgd : constraints.tgds) {
      ttgd_texts.push_back(TgdToString(tgd, *m.target, *m.target));
    }
  }

  // Profiling: register every target constraint on this serial path so
  // ids are deterministic (the s-t phase registered its own tgds above).
  std::vector<uint32_t> prof_egds(constraints.egds.size(),
                                  obs::kProfileNoDep);
  std::vector<uint32_t> prof_ttgds(constraints.tgds.size(),
                                   obs::kProfileNoDep);
  if (obs::Profiler::Enabled()) {
    for (size_t ei = 0; ei < constraints.egds.size(); ++ei) {
      prof_egds[ei] = run.RegisterDep(
          EgdToString(constraints.egds[ei], *m.target),
          static_cast<uint32_t>(constraints.egds[ei].lhs.size()));
    }
    for (size_t ti = 0; ti < constraints.tgds.size(); ++ti) {
      prof_ttgds[ti] = run.RegisterDep(
          TgdToString(constraints.tgds[ti], *m.target, *m.target),
          static_cast<uint32_t>(constraints.tgds[ti].lhs.size()));
    }
  }

  HomSearchOptions search_options;
  // Each target tgd's existential variables, computed once per run
  // instead of once per fire.
  std::vector<std::vector<Value>> existentials;
  existentials.reserve(constraints.tgds.size());
  for (const Tgd& tgd : constraints.tgds) {
    existentials.push_back(tgd.ExistentialVariables());
  }

  // Fixpoint loop: egds first (cheap, and merging can satisfy tgds),
  // then target tgds.
  while (true) {
    Status tick = run.Tick();
    if (!tick.ok()) return trip(std::move(tick));
    bool fired = false;
    for (size_t ei = 0; ei < constraints.egds.size(); ++ei) {
      const Egd& egd = constraints.egds[ei];
      std::optional<EgdTrigger> merge =
          FindEgdTrigger(target_inst, egd, search_options, prof_egds[ei]);
      if (!merge.has_value()) continue;
      Value a = merge->a;
      Value b = merge->b;
      if (a.IsConstant() && b.IsConstant()) {
        // Two distinct constants: the exchange has no solution. The
        // journal keeps the failing merge — the audit trail of *why*
        // there is no solution.
        if (journal.active()) {
          journal.RecordMerge(a.ToString(), b.ToString(), egd_texts[ei],
                              static_cast<int32_t>(ei),
                              AssignmentToString(merge->match));
        }
        result.failed = true;
        hand_over(&result.solution);
        result.steps = run.steps();
        st.steps = run.steps();
        result.stats = st;
        return result;
      }
      // Nulls yield to constants; between nulls, the younger label
      // yields (deterministic).
      Value keep = a;
      Value drop = b;
      if (a.IsNull() && (b.IsConstant() || b.id() < a.id())) {
        keep = b;
        drop = a;
      }
      target_inst = ApplyAssignmentToInstance(target_inst, {{drop, keep}});
      ++st.egd_merges;
      obs::ProfileRecordFire(prof_egds[ei], 0, 0);
      if (journal.active()) {
        uint64_t merge_id = journal.RecordMerge(
            keep.ToString(), drop.ToString(), egd_texts[ei],
            static_cast<int32_t>(ei), AssignmentToString(merge->match));
        // The merge rewrote facts in place: register every rendering the
        // run has not seen, parented on the merge event, so later
        // triggers resolve their parents.
        for (const Fact& fact : target_inst.Facts()) {
          std::string text = FactToString(*m.target, fact);
          if (journal.IdForFact(text) == 0) {
            journal.RecordDerivedFact(text, egd_texts[ei],
                                      static_cast<int32_t>(ei), "",
                                      {merge_id});
          }
        }
      }
      fired = true;
      break;
    }
    if (fired) continue;
    for (size_t ti = 0; ti < constraints.tgds.size(); ++ti) {
      const Tgd& tgd = constraints.tgds[ti];
      std::optional<Assignment> trigger =
          FindTgdTrigger(target_inst, tgd, search_options, prof_ttgds[ti]);
      if (!trigger.has_value()) continue;
      std::vector<uint64_t> parent_ids;
      std::vector<uint64_t> null_ids;
      if (journal.active()) {
        for (const Atom& atom :
             ApplyAssignmentToConjunction(tgd.lhs, *trigger)) {
          parent_ids.push_back(
              journal.RecordBaseFact(AtomToString(atom, *m.target)));
        }
      }
      Assignment extended = *trigger;
      size_t fresh_nulls = 0;
      for (const Value& y : existentials[ti]) {
        Value fresh = Value::MakeNull(next_null++);
        extended.emplace(y, fresh);
        ++st.nulls_minted;
        ++fresh_nulls;
        if (journal.active()) {
          null_ids.push_back(journal.RecordNull(
              fresh.ToString(), y.ToString(), ttgd_texts[ti],
              static_cast<int32_t>(ti)));
        }
      }
      if (fresh_nulls > 0) {
        Status charge = run.ChargeNulls(fresh_nulls);
        if (!charge.ok()) return trip(std::move(charge));
      }
      for (Atom& atom : ApplyAssignmentToConjunction(tgd.rhs, extended)) {
        Status charge = run.ChargeMemory(
            ApproxFactBytes(atom.args.size(), sizeof(Value)));
        if (!charge.ok()) return trip(std::move(charge));
        std::string fact_text;
        if (journal.active()) fact_text = AtomToString(atom, *m.target);
        QIMAP_RETURN_IF_ERROR(
            target_inst.AddFact(atom.relation, std::move(atom.args)));
        if (journal.active()) {
          journal.RecordDerivedFact(fact_text, ttgd_texts[ti],
                                    static_cast<int32_t>(ti),
                                    AssignmentToString(*trigger),
                                    parent_ids, null_ids);
        }
      }
      ++st.tgd_fires;
      obs::ProfileRecordFire(prof_ttgds[ti], fresh_nulls,
                             tgd.rhs.size());
      fired = true;
      break;
    }
    if (!fired) break;
  }
  hand_over(&result.solution);
  result.steps = run.steps();
  st.steps = run.steps();
  result.stats = st;
  return result;
}

}  // namespace qimap
