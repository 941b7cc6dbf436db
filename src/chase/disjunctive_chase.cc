#include "chase/disjunctive_chase.h"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "base/budget.h"
#include "chase/trigger_finder.h"
#include "obs/metrics.h"
#include "obs/pipeline_run.h"
#include "obs/profiler.h"
#include "relational/homomorphism.h"

namespace qimap {
namespace {

constexpr obs::PipelineSpec kRun = {"chase/disjunctive", "chase/disjunctive",
                                    "disjunctive chase"};

// Mirrors one run's totals into the process-wide metrics registry.
void FlushDisjunctiveChaseMetrics(const DisjunctiveChaseStats& st) {
  static const obs::MetricId kRuns = obs::RegisterCounter("dchase.runs");
  static const obs::MetricId kSteps = obs::RegisterCounter("dchase.steps");
  static const obs::MetricId kNodes = obs::RegisterCounter("dchase.nodes");
  static const obs::MetricId kLeaves =
      obs::RegisterCounter("dchase.leaves");
  static const obs::MetricId kBranches =
      obs::RegisterCounter("dchase.branches");
  static const obs::MetricId kDropped =
      obs::RegisterCounter("dchase.dedup_dropped");
  static const obs::MetricId kNulls =
      obs::RegisterCounter("dchase.nulls_minted");
  obs::CounterAdd(kRuns);
  obs::CounterAdd(kSteps, st.steps);
  obs::CounterAdd(kNodes, st.nodes);
  obs::CounterAdd(kLeaves, st.leaves);
  obs::CounterAdd(kBranches, st.branches);
  obs::CounterAdd(kDropped, st.dedup_dropped);
  obs::CounterAdd(kNulls, st.nulls_minted);
}

// One applicable chase step: a dependency together with the lhs match.
struct ApplicableStep {
  const DisjunctiveTgd* dep = nullptr;
  size_t dep_index = 0;
  Assignment match;
};

// Finds the first (dependency, homomorphism) pair that is applicable to
// `current` per Definition 6.3: the lhs matches the (fixed) target
// instance with the side conditions satisfied, and no disjunct extends the
// match into `current`. Dependency bodies read only the fixed target
// instance, so the per-dependency match lists are computed once per run
// (`dep_matches`, canonically sorted) and every node only pays for the
// satisfaction checks against its own source instance. Deterministic:
// dependencies in order, matches in canonical order.
std::optional<ApplicableStep> FindApplicableStep(
    const std::vector<std::vector<Assignment>>& dep_matches,
    const Instance& current, const ReverseMapping& m,
    const HomSearchOptions& rhs_options,
    const std::vector<uint32_t>& prof_deps) {
  for (size_t dep_index = 0; dep_index < m.deps.size(); ++dep_index) {
    const DisjunctiveTgd& dep = m.deps[dep_index];
    // Satisfaction searches pool into this dependency's rhs totals.
    obs::ProfiledDepScope scope(prof_deps[dep_index],
                                obs::ProfilePhase::kFire);
    for (const Assignment& h : dep_matches[dep_index]) {
      bool satisfied = false;
      for (const Conjunction& disjunct : dep.disjuncts) {
        if (HasHomomorphism(disjunct, current, h, rhs_options)) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) return ApplicableStep{&dep, dep_index, h};
      obs::ProfileRecordSkip(prof_deps[dep_index]);
    }
  }
  return std::nullopt;
}

}  // namespace

Result<std::vector<Instance>> DisjunctiveChase(
    const Instance& target_inst, const ReverseMapping& m,
    const DisjunctiveChaseOptions& options, DisjunctiveChaseStats* stats) {
  DisjunctiveChaseStats local_stats;
  DisjunctiveChaseStats& st = stats != nullptr ? *stats : local_stats;
  st = DisjunctiveChaseStats{};
  // Heartbeats over the tree expansion. The node/leaf counts stand in
  // for fired/skipped: what a long disjunctive run needs surfaced is how
  // fast the tree grows versus how much dedup holds it down.
  obs::PipelineRun run(kRun, options.max_steps, options.budget, [&st]() {
    obs::ProgressSample sample;
    sample.facts = st.nodes;
    sample.nulls = st.nulls_minted;
    sample.fired = st.branches;
    sample.skipped = st.dedup_dropped;
    return sample;
  });
  auto& journal = run.journal();
  // Flush whatever was counted on every exit path, including errors.
  struct Flusher {
    DisjunctiveChaseStats* st;
    obs::PipelineRun* run;
    ~Flusher() {
      st->steps = run->steps();
      FlushDisjunctiveChaseMetrics(*st);
    }
  } flusher{&st, &run};

  uint32_t next_null = target_inst.MaxNullLabel() + 1;
  std::vector<Instance> leaves;
  // Ends the exploration on a budget trip: journal + budget.* metrics,
  // then the leaves completed so far as the best-effort partial result.
  auto trip = [&](Status status) -> Status {
    st.partial = true;
    run.Trip(status, options.partial_out != nullptr);
    if (options.partial_out != nullptr) {
      *options.partial_out = std::move(leaves);
    }
    return status;
  };

  // Provenance: the lhs of every step matches the fixed target instance,
  // so its facts are the only possible parents — register them up front.
  std::vector<std::string> dep_texts;
  if (journal.active()) {
    for (const Fact& fact : target_inst.Facts()) {
      journal.RecordBaseFact(FactToString(*m.from, fact));
    }
    for (const DisjunctiveTgd& dep : m.deps) {
      dep_texts.push_back(DisjunctiveTgdToString(dep, *m.from, *m.to));
    }
  }

  // Dependency lhs are over the (fixed) target schema, so every node
  // shares the same per-dependency match lists — collect them once, with
  // the side conditions applied, in dependency order.
  std::vector<const Conjunction*> bodies;
  std::vector<HomSearchOptions> body_options;
  bodies.reserve(m.deps.size());
  body_options.reserve(m.deps.size());
  for (const DisjunctiveTgd& dep : m.deps) {
    bodies.push_back(&dep.lhs);
    HomSearchOptions lhs_options;
    lhs_options.must_be_constant = dep.constant_vars;
    lhs_options.inequalities = dep.inequalities;
    body_options.push_back(std::move(lhs_options));
  }
  // Profiling: register the disjunctive dependencies up front, in order.
  std::vector<uint32_t> prof_deps(m.deps.size(), obs::kProfileNoDep);
  const bool profiled = obs::Profiler::Enabled();
  if (profiled) {
    for (size_t d = 0; d < m.deps.size(); ++d) {
      prof_deps[d] = run.RegisterDep(
          DisjunctiveTgdToString(m.deps[d], *m.from, *m.to),
          static_cast<uint32_t>(m.deps[d].lhs.size()));
    }
  }
  // One rhs-search option set shared by every node's satisfaction checks.
  HomSearchOptions rhs_options;
  std::vector<std::vector<Assignment>> dep_matches;
  {
    Result<std::vector<std::vector<Assignment>>> collected =
        FindTriggerBatches(bodies, body_options, target_inst,
                           options.budget, nullptr,
                           profiled ? &prof_deps : nullptr);
    if (!collected.ok()) return trip(collected.status());
    dep_matches = std::move(collected).value();
  }

  std::set<Instance> seen_leaves;
  // Chase-tree node ids, labeling each branch's journal events (the root
  // is node 1; every branched child gets the next id).
  uint64_t next_node = 2;

  // Breadth-first exploration over a FIFO worklist: children append after
  // every already-queued node, so the tree is expanded level by level and
  // node ids, null labels, leaves and journal records follow that order.
  std::deque<Instance> worklist;
  worklist.emplace_back(m.to);  // the root's source part is empty
  ++st.nodes;
  while (!worklist.empty()) {
    // Cooperative cancellation point: a cancel (or deadline) lands here,
    // between nodes, before the next one is examined.
    Status check = run.Check();
    if (!check.ok()) return trip(std::move(check));
    Instance current = std::move(worklist.front());
    worklist.pop_front();
    std::optional<ApplicableStep> step =
        FindApplicableStep(dep_matches, current, m, rhs_options, prof_deps);
    if (!step.has_value()) {
      if (seen_leaves.insert(current).second) {
        leaves.push_back(std::move(current));
        ++st.leaves;
        if (leaves.size() > options.max_leaves) {
          Status status = Status::ResourceExhausted(
              "disjunctive chase exceeded max_leaves (" +
              std::to_string(options.max_leaves) + " leaves)");
          // Not a shared-budget trip, but still a bounded-resource exit:
          // hand back the leaves collected so far.
          st.partial = true;
          if (options.partial_out != nullptr) {
            *options.partial_out = std::move(leaves);
          }
          return status;
        }
      } else {
        ++st.dedup_dropped;
      }
      continue;
    }
    {
      Status tick = run.Tick();
      if (!tick.ok()) return trip(std::move(tick));
    }
    // Branch: one child per disjunct (Definition 6.3).
    const DisjunctiveTgd& dep = *step->dep;
    std::vector<uint64_t> parent_ids;
    if (journal.active()) {
      for (const Atom& atom :
           ApplyAssignmentToConjunction(dep.lhs, step->match)) {
        parent_ids.push_back(
            journal.RecordBaseFact(AtomToString(atom, *m.from)));
      }
    }
    for (size_t i = 0; i < dep.disjuncts.size(); ++i) {
      // A branched child duplicates the parent's instance; charge the
      // approximate copy so the memory budget tracks tree growth, the
      // dominant cost of a disjunctive blowup.
      {
        Status charge = run.ChargeMemory(
            (current.NumFacts() + 1) * ApproxFactBytes(2, sizeof(Value)));
        if (!charge.ok()) return trip(std::move(charge));
      }
      Instance child = current;
      uint64_t child_node = next_node++;
      std::vector<uint64_t> null_ids;
      size_t fresh_nulls = 0;
      Assignment extended = step->match;
      for (const Value& y : dep.ExistentialVariablesOf(i)) {
        Value fresh = Value::MakeNull(next_null++);
        extended.emplace(y, fresh);
        ++st.nulls_minted;
        ++fresh_nulls;
        if (journal.active()) {
          null_ids.push_back(journal.RecordNull(
              fresh.ToString(), y.ToString(), dep_texts[step->dep_index],
              static_cast<int32_t>(step->dep_index), child_node));
        }
      }
      if (fresh_nulls > 0) {
        Status charge = run.ChargeNulls(fresh_nulls);
        if (!charge.ok()) return trip(std::move(charge));
      }
      for (const Atom& atom :
           ApplyAssignmentToConjunction(dep.disjuncts[i], extended)) {
        Status status = child.AddFact(atom.relation, atom.args);
        if (!status.ok()) return status;
        if (journal.active()) {
          journal.RecordDerivedFact(
              AtomToString(atom, *m.to), dep_texts[step->dep_index],
              static_cast<int32_t>(step->dep_index),
              AssignmentToString(step->match), parent_ids, null_ids,
              static_cast<int32_t>(i), child_node);
        }
      }
      obs::ProfileRecordFire(prof_deps[step->dep_index], fresh_nulls,
                             dep.disjuncts[i].size());
      worklist.push_back(std::move(child));
      ++st.nodes;
      ++st.branches;
    }
  }
  return leaves;
}

std::vector<Instance> MustDisjunctiveChase(
    const Instance& target_inst, const ReverseMapping& m,
    const DisjunctiveChaseOptions& options) {
  Result<std::vector<Instance>> result =
      DisjunctiveChase(target_inst, m, options);
  if (!result.ok()) {
    std::fprintf(stderr, "MustDisjunctiveChase: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

}  // namespace qimap
