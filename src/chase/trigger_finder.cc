#include "chase/trigger_finder.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace qimap {
namespace {

// Unifies one body atom against one stored row (read straight from the
// column store) into a partial assignment: movable arguments (per the
// matcher's own predicate) bind consistently, everything else must match
// literally. False when the row cannot be this atom's image.
bool UnifyAtomRow(const Atom& atom, const Instance& inst, uint32_t row,
                  const HomSearchOptions& options, Assignment* partial) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const Value& arg = atom.args[i];
    const Value& val =
        inst.at(atom.relation, row, static_cast<uint32_t>(i));
    if (IsMovableValue(arg, options)) {
      auto [it, inserted] = partial->emplace(arg, val);
      if (!inserted && !(it->second == val)) return false;
    } else if (!(arg == val)) {
      return false;
    }
  }
  return true;
}

// Mirrors one parallel fan-out of `tasks` independent work items into the
// `chase.parallel.batches` / `chase.parallel.tasks` counters. No-op for a
// single-thread pool, so serial runs report all-zero parallel counters.
void CountParallelFanout(const ThreadPool& pool, size_t tasks) {
  if (pool.num_threads() < 2 || tasks < 2) return;
  static const obs::MetricId kBatches =
      obs::RegisterCounter("chase.parallel.batches");
  static const obs::MetricId kTasks =
      obs::RegisterCounter("chase.parallel.tasks");
  obs::CounterAdd(kBatches);
  obs::CounterAdd(kTasks, tasks);
}

}  // namespace

std::vector<Assignment> FindTriggers(const Conjunction& body,
                                     const Instance& inst,
                                     const HomSearchOptions& options) {
  std::vector<Assignment> matches =
      FindAllHomomorphisms(body, inst, {}, options);
  // Assignment is an ordered map, so the lexicographic vector sort is a
  // canonical order on (variable, value) binding lists.
  std::sort(matches.begin(), matches.end());
  return matches;
}

std::vector<Assignment> FindDeltaTriggers(
    const Conjunction& body, const Instance& inst,
    const std::vector<uint32_t>& epoch, const HomSearchOptions& options) {
  // std::set iterates in the same lexicographic order std::sort produces,
  // so the result is canonically sorted for free while deduplicating
  // matches reachable from several (atom, delta fact) seeds.
  std::set<Assignment> found;
  for (const Atom& atom : body) {
    const uint32_t num_rows = inst.NumRows(atom.relation);
    uint32_t start =
        atom.relation < epoch.size() ? epoch[atom.relation] : 0;
    for (uint32_t row = start; row < num_rows; ++row) {
      Assignment partial;
      if (!UnifyAtomRow(atom, inst, row, options, &partial)) continue;
      for (Assignment& h :
           FindAllHomomorphisms(body, inst, partial, options)) {
        found.insert(std::move(h));
      }
    }
  }
  return std::vector<Assignment>(found.begin(), found.end());
}

Result<std::vector<std::vector<Assignment>>> FindTriggerBatches(
    const std::vector<const Conjunction*>& bodies,
    const std::vector<HomSearchOptions>& options, const Instance& inst,
    ThreadPool& pool, Budget* budget,
    const std::vector<uint32_t>* delta_epoch,
    const std::vector<uint32_t>* profile_deps) {
  std::vector<std::vector<Assignment>> batches(bodies.size());
  std::vector<Status> statuses(bodies.size());
  CountParallelFanout(pool, bodies.size());
  const Cancellation* cancel =
      budget != nullptr ? budget->cancellation() : nullptr;
  pool.ParallelFor(
      bodies.size(),
      [&](size_t i) {
        if (budget != nullptr) {
          statuses[i] = budget->OnPoolTask("trigger collection");
          if (!statuses[i].ok()) return;
        }
        uint32_t dep = profile_deps != nullptr ? (*profile_deps)[i]
                                               : obs::kProfileNoDep;
        obs::ProfiledDepScope scope(dep, obs::ProfilePhase::kCollect);
        const HomSearchOptions& opts =
            options.size() == 1 ? options[0] : options[i];
        batches[i] =
            delta_epoch != nullptr
                ? FindDeltaTriggers(*bodies[i], inst, *delta_epoch, opts)
                : FindTriggers(*bodies[i], inst, opts);
        obs::ProfileRecordTriggers(dep, batches[i].size());
      },
      cancel);
  if (budget != nullptr) {
    // Lowest failing index wins so the reported error does not depend on
    // thread timing. A cancelled ParallelFor leaves later slots OK but
    // empty; the trailing Check() turns that into the budget's verdict.
    for (const Status& status : statuses) {
      QIMAP_RETURN_IF_ERROR(status);
    }
    QIMAP_RETURN_IF_ERROR(budget->Check("trigger collection"));
    for (size_t i = 0; i < bodies.size(); ++i) {
      QIMAP_RETURN_IF_ERROR(budget->OnTriggerBatch("trigger collection"));
    }
  }
  return batches;
}

}  // namespace qimap
