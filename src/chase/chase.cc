#include "chase/chase.h"

#include <cstdio>
#include <cstdlib>

#include "base/budget.h"
#include "chase/chase_checkpoint.h"
#include "chase/trigger_finder.h"
#include "obs/metrics.h"
#include "obs/pipeline_run.h"
#include "obs/profiler.h"
#include "relational/homomorphism.h"

namespace qimap {
namespace {

constexpr obs::PipelineSpec kRun = {"chase/standard", "chase/standard",
                                    "standard chase"};

// Mirrors one run's totals into the process-wide metrics registry.
void FlushChaseMetrics(const ChaseStats& st) {
  static const obs::MetricId kRuns = obs::RegisterCounter("chase.runs");
  static const obs::MetricId kSteps = obs::RegisterCounter("chase.steps");
  static const obs::MetricId kFired =
      obs::RegisterCounter("chase.triggers_fired");
  static const obs::MetricId kHits =
      obs::RegisterCounter("chase.satisfaction_hits");
  static const obs::MetricId kNulls =
      obs::RegisterCounter("chase.nulls_minted");
  static const obs::MetricId kFacts =
      obs::RegisterCounter("chase.facts_added");
  obs::CounterAdd(kRuns);
  obs::CounterAdd(kSteps, st.steps);
  obs::CounterAdd(kFired, st.triggers_fired);
  obs::CounterAdd(kHits, st.satisfaction_hits);
  obs::CounterAdd(kNulls, st.nulls_minted);
  obs::CounterAdd(kFacts, st.facts_added);
  if (st.resumed) {
    static const obs::MetricId kDeltaRuns =
        obs::RegisterCounter("chase.delta.runs");
    static const obs::MetricId kDeltaFacts =
        obs::RegisterCounter("chase.delta.facts");
    static const obs::MetricId kDeltaTriggers =
        obs::RegisterCounter("chase.delta.triggers");
    static const obs::MetricId kReplayed =
        obs::RegisterCounter("chase.delta.replayed");
    static const obs::MetricId kChecksSkipped =
        obs::RegisterCounter("chase.delta.checks_skipped");
    obs::CounterAdd(kDeltaRuns);
    obs::CounterAdd(kDeltaFacts, st.delta_facts);
    obs::CounterAdd(kDeltaTriggers, st.delta_triggers);
    obs::CounterAdd(kReplayed, st.replayed_triggers);
    obs::CounterAdd(kChecksSkipped, st.checks_skipped);
  }
}

// How one entry of the merged firing sequence was resolved in the
// recorded run: freshly found over the delta, or replayed from a
// checkpoint record.
enum class Provenance : uint8_t { kNew, kOldFired, kOldSkipped };

struct MergedTrigger {
  const Assignment* h;
  Provenance prov;
};

// True iff some rhs atom of `tgd` writes into a relation that a fresh
// (delta) trigger has already fired into during this resume.
bool TouchesRhs(const Tgd& tgd, const std::vector<bool>& touched) {
  for (const Atom& atom : tgd.rhs) {
    if (touched[atom.relation]) return true;
  }
  return false;
}

}  // namespace

Result<Instance> Chase(const Instance& source_inst, const SchemaMapping& m,
                       const ChaseOptions& options, ChaseStats* stats) {
  ChaseStats local_stats;
  ChaseStats& st = stats != nullptr ? *stats : local_stats;
  st = ChaseStats{};
  // Heartbeats: sampled from `st` on the serial fire loop only, so every
  // snapshot is a deterministic function of the input. Trigger
  // collection sets the total to the exact merged-batch count below.
  obs::PipelineRun run(kRun, options.max_steps, options.budget, [&st]() {
    obs::ProgressSample sample;
    sample.facts = st.facts_added;
    sample.nulls = st.nulls_minted;
    sample.fired = st.triggers_fired;
    sample.skipped = st.satisfaction_hits;
    return sample;
  });
  auto& journal = run.journal();

  const std::vector<Tgd>& tgds = m.tgds;
  Instance target_inst(m.target);
  uint32_t null_base = options.first_null_label != 0
                           ? options.first_null_label
                           : source_inst.MaxNullLabel() + 1;
  uint32_t next_null = null_base;
  Status overflow = Status::OK();

  // Incremental resume: a checkpoint matches when it was cut from a
  // prefix of this source instance (proved by the prefix fingerprint —
  // storage is insert-only, so "the prefix is unchanged" means "the
  // instance only grew"), under the same dependencies. A non-matching
  // checkpoint is simply re-recorded below.
  ChaseCheckpoint* ckpt = options.incremental;
  const bool record = ckpt != nullptr;
  uint64_t dep_fp = 0;
  bool resume = false;
  if (record) {
    dep_fp = DependencyFingerprint(tgds, *source_inst.schema(),
                                   *target_inst.schema());
    resume = ckpt->valid && ckpt->dependency_fingerprint == dep_fp &&
             ckpt->triggers.size() == tgds.size() &&
             source_inst.IsValidEpoch(ckpt->source_epoch) &&
             source_inst.PrefixFingerprint(ckpt->source_epoch) ==
                 ckpt->source_fingerprint;
  }

  // Provenance: register the input facts and pre-render the dependencies
  // once; the per-fire records below then only resolve parent ids.
  std::vector<std::string> dep_texts;
  if (journal.active()) {
    for (const Fact& fact : source_inst.Facts()) {
      journal.RecordBaseFact(FactToString(*source_inst.schema(), fact));
    }
    for (const Tgd& tgd : tgds) {
      dep_texts.push_back(
          TgdToString(tgd, *source_inst.schema(), *target_inst.schema()));
    }
  }

  // Profiling: register every dependency here, before any search runs,
  // so ids follow dependency order. Registration is keyed by (pipeline,
  // rendered text), so repeated chases of the same mapping (e.g.
  // CheckRoundTrip's re-chases) aggregate into one entry.
  std::vector<uint32_t> prof_deps;
  const bool profiled = obs::Profiler::Enabled();
  if (profiled) {
    prof_deps.reserve(tgds.size());
    for (const Tgd& tgd : tgds) {
      prof_deps.push_back(run.RegisterDep(
          TgdToString(tgd, *source_inst.schema(), *target_inst.schema()),
          static_cast<uint32_t>(tgd.lhs.size())));
    }
  }

  // s-t tgds read only the source, so one pass over all (tgd, match) pairs
  // reaches a terminal chase state: no new lhs matches can ever appear.
  //
  // Phase 1 — collect every dependency's sorted trigger batch. Collection
  // reads only the fixed source instance, and the canonical sort makes
  // phase 2 independent of the order the matcher enumerated in. A resume
  // collects semi-naively: only matches touching at least one delta fact.
  HomSearchOptions lhs_options;
  lhs_options.use_index = options.use_index;
  std::vector<const Conjunction*> bodies;
  bodies.reserve(tgds.size());
  for (const Tgd& tgd : tgds) bodies.push_back(&tgd.lhs);
  std::vector<std::vector<Assignment>> batches(tgds.size());
  {
    Result<std::vector<std::vector<Assignment>>> collected =
        FindTriggerBatches(bodies, {lhs_options}, source_inst,
                           options.budget,
                           resume ? &ckpt->source_epoch : nullptr,
                           profiled ? &prof_deps : nullptr);
    if (collected.ok()) {
      batches = std::move(collected).value();
    } else {
      overflow = collected.status();  // firing is skipped below
    }
  }

  // The merged firing sequence per dependency. The full chase fires the
  // canonically sorted batch; on resume, the recorded triggers (sorted)
  // and the semi-naive delta triggers (sorted, disjoint from the
  // records) merge into exactly that sequence, so replay walks the same
  // positions a full re-chase would.
  std::vector<std::vector<MergedTrigger>> merged(tgds.size());
  for (size_t d = 0; d < tgds.size() && overflow.ok(); ++d) {
    const std::vector<Assignment>& fresh = batches[d];
    if (!resume) {
      merged[d].reserve(fresh.size());
      for (const Assignment& h : fresh) {
        merged[d].push_back({&h, Provenance::kNew});
      }
      continue;
    }
    const std::vector<ChaseCheckpoint::TriggerRecord>& olds =
        ckpt->triggers[d];
    st.replayed_triggers += olds.size();
    st.delta_triggers += fresh.size();
    merged[d].reserve(olds.size() + fresh.size());
    size_t i = 0;
    size_t j = 0;
    while (i < olds.size() || j < fresh.size()) {
      if (j >= fresh.size() ||
          (i < olds.size() && olds[i].trigger < fresh[j])) {
        merged[d].push_back({&olds[i].trigger, olds[i].fired
                                                   ? Provenance::kOldFired
                                                   : Provenance::kOldSkipped});
        ++i;
      } else {
        merged[d].push_back({&fresh[j], Provenance::kNew});
        ++j;
      }
    }
  }
  if (resume) {
    st.resumed = true;
    st.delta_facts = source_inst.NumFactsSince(ckpt->source_epoch);
  }
  if (obs::Progress::Enabled() && overflow.ok()) {
    uint64_t exact_total = 0;
    for (const std::vector<MergedTrigger>& sequence : merged) {
      exact_total += sequence.size();
    }
    run.SetTotalEstimate(exact_total);
  }

  // Append-only fast path: when every delta trigger sorts after every
  // recorded trigger, no recorded outcome can change and no recorded
  // null label can shift, so the stored result *is* the replayed prefix
  // — extend it in place instead of rebuilding it. Journaled runs replay
  // (the journal must carry every fire) and governed runs replay (memory
  // and null charges must be faithful).
  bool fast = resume && overflow.ok() && !journal.active() &&
              options.budget == nullptr && options.partial_out == nullptr &&
              ckpt->result.has_value() && ckpt->null_base == null_base;
  if (fast) {
    bool seen_new = false;
    for (size_t d = 0; d < tgds.size() && fast; ++d) {
      for (const MergedTrigger& mt : merged[d]) {
        if (mt.prov == Provenance::kNew) {
          seen_new = true;
        } else if (seen_new) {
          fast = false;
          break;
        }
      }
    }
  }
  if (fast) {
    target_inst = std::move(*ckpt->result);
    ckpt->result.reset();
    next_null = ckpt->next_null;
    st.triggers_fired = ckpt->totals.triggers_fired;
    st.satisfaction_hits = ckpt->totals.satisfaction_hits;
    st.nulls_minted = ckpt->totals.nulls_minted;
    st.facts_added = ckpt->totals.facts_added;
  }

  // Per-dependency fire state, computed once instead of per trigger: the
  // existential variables of each rhs, and one rhs search-option set.
  std::vector<std::vector<Value>> existentials;
  existentials.reserve(tgds.size());
  for (const Tgd& tgd : tgds) {
    existentials.push_back(tgd.ExistentialVariables());
  }
  HomSearchOptions rhs_options;
  rhs_options.use_index = options.use_index;

  // Phase 2 — fire in (dependency, canonical match) order. The
  // satisfaction check reads the growing target instance, and fresh-null
  // labels and journal records depend on firing order.
  //
  // Replay discipline (slow resume): a recorded SKIP stays a skip — the
  // target only gains facts relative to the recorded run (up to an
  // injective relabeling of minted nulls, which preserves witnesses), so
  // the recorded witness still witnesses. A recorded FIRE needs a real
  // satisfaction search only when a delta trigger has already fired into
  // one of its rhs relations (`touched`); otherwise any new witness
  // would need a fact that does not exist, and the fire replays without
  // searching. The first recorded fire that flips to a skip ends the
  // shortcut regime (`diverged`): the state now differs from the
  // recorded run by *missing* facts, so every later trigger gets a real
  // search — which is exactly what a full re-chase does.
  std::vector<std::vector<ChaseCheckpoint::TriggerRecord>> out_records;
  if (record) out_records.resize(tgds.size());
  if (fast) {
    // Every recorded outcome survives verbatim on the fast path, so the
    // re-recorded prefix is the old record list itself: recycle the
    // checkpoint's vectors instead of copying one Assignment per
    // replayed trigger. `merged` holds pointers into these records; a
    // vector move keeps the elements in place, and the only push_backs
    // (which may reallocate and move the inline pairs) come from fresh
    // triggers, after the fire loop has passed the last recorded one.
    for (size_t d = 0; d < tgds.size(); ++d) {
      out_records[d] = std::move(ckpt->triggers[d]);
    }
  }
  std::vector<bool> touched(target_inst.schema()->size(), false);
  bool diverged = false;
  for (size_t dep_index = 0;
       dep_index < tgds.size() && overflow.ok(); ++dep_index) {
    const Tgd& tgd = tgds[dep_index];
    // Fire-phase attribution: satisfaction searches and firing time land
    // on this dependency's rhs totals (never its per-atom body rows).
    const uint32_t prof_dep =
        profiled ? prof_deps[dep_index] : obs::kProfileNoDep;
    obs::ProfiledDepScope prof_scope(prof_dep, obs::ProfilePhase::kFire);
    for (const MergedTrigger& mt : merged[dep_index]) {
      const Assignment& h = *mt.h;
      Status tick = run.Tick();
      if (!tick.ok()) {
        overflow = std::move(tick);
        break;
      }
      if (fast && mt.prov != Provenance::kNew) {
        // The stored result already contains this trigger's effect, and
        // `out_records` already holds its recycled record.
        ++st.checks_skipped;
        continue;
      }
      // Standard-chase applicability: skip when some extension of h
      // already maps the rhs into the target instance. Replayed triggers
      // resolve from their recorded outcome when the replay discipline
      // allows.
      bool fire = true;
      if (mt.prov == Provenance::kOldSkipped && !diverged) {
        fire = false;
        ++st.checks_skipped;
      } else if (mt.prov == Provenance::kOldFired && !diverged &&
                 !TouchesRhs(tgd, touched)) {
        ++st.checks_skipped;
      } else {
        fire = !HasHomomorphism(tgd.rhs, target_inst, h, rhs_options);
      }
      if (!fire) {
        ++st.satisfaction_hits;
        obs::ProfileRecordSkip(prof_dep);
        if (mt.prov == Provenance::kOldFired) diverged = true;
        if (record) out_records[dep_index].push_back({h, false});
        continue;
      }
      // Fire: instantiate the rhs, using fresh nulls for the existential
      // variables.
      ++st.triggers_fired;
      std::vector<uint64_t> parent_ids;
      std::vector<uint64_t> null_ids;
      if (journal.active()) {
        for (const Atom& atom : ApplyAssignmentToConjunction(tgd.lhs, h)) {
          parent_ids.push_back(journal.RecordBaseFact(
              AtomToString(atom, *source_inst.schema())));
        }
      }
      Assignment extended = h;
      size_t fresh_nulls = 0;
      for (const Value& y : existentials[dep_index]) {
        Value fresh = Value::MakeNull(next_null++);
        extended.emplace(y, fresh);
        ++st.nulls_minted;
        ++fresh_nulls;
        if (journal.active()) {
          null_ids.push_back(journal.RecordNull(
              fresh.ToString(), y.ToString(), dep_texts[dep_index],
              static_cast<int32_t>(dep_index)));
        }
      }
      if (fresh_nulls > 0) {
        overflow = run.ChargeNulls(fresh_nulls);
        if (!overflow.ok()) break;
      }
      size_t facts_this_fire = 0;
      for (Atom& atom : ApplyAssignmentToConjunction(tgd.rhs, extended)) {
        overflow =
            run.ChargeMemory(ApproxFactBytes(atom.args.size(), sizeof(Value)));
        if (!overflow.ok()) break;
        std::string fact_text;
        if (journal.active()) {
          fact_text = AtomToString(atom, *target_inst.schema());
        }
        Status status =
            target_inst.AddFact(atom.relation, std::move(atom.args));
        ++st.facts_added;
        ++facts_this_fire;
        if (journal.active()) {
          journal.RecordDerivedFact(
              fact_text, dep_texts[dep_index],
              static_cast<int32_t>(dep_index), AssignmentToString(h),
              parent_ids, null_ids);
        }
        if (mt.prov == Provenance::kNew || diverged) {
          touched[atom.relation] = true;
        }
        if (!status.ok()) {
          overflow = status;
          break;
        }
      }
      obs::ProfileRecordFire(prof_dep, fresh_nulls, facts_this_fire);
      if (record) out_records[dep_index].push_back({h, true});
      if (!overflow.ok()) break;
    }
  }
  st.steps = run.steps();
  st.partial = !overflow.ok() && run.exhausted();
  FlushChaseMetrics(st);
  if (!overflow.ok()) {
    if (record) ckpt->valid = false;
    if (st.partial) {
      // Budget trip: journal the limit, mirror it into budget.*, and hand
      // back the instance built so far as a best-effort partial result.
      run.Trip(overflow, options.partial_out != nullptr);
      if (options.partial_out != nullptr) {
        *options.partial_out = std::move(target_inst);
      }
    }
    return overflow;
  }
  if (record) {
    ckpt->valid = true;
    ckpt->source_epoch = source_inst.RowCounts();
    ckpt->source_fingerprint = source_inst.Fingerprint();
    ckpt->dependency_fingerprint = dep_fp;
    ckpt->null_base = null_base;
    ckpt->next_null = next_null;
    ckpt->triggers = std::move(out_records);
    ckpt->totals = st;
    ckpt->result = target_inst;
  }
  return target_inst;
}

Instance MustChase(const Instance& source_inst, const SchemaMapping& m,
                   const ChaseOptions& options) {
  Result<Instance> result = Chase(source_inst, m, options);
  if (!result.ok()) {
    std::fprintf(stderr, "MustChase: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

}  // namespace qimap
