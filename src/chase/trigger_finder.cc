#include "chase/trigger_finder.h"

#include <algorithm>
#include <set>

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
    Budget* budget, const std::vector<uint32_t>* delta_epoch,
    const std::vector<uint32_t>* profile_deps) {
  std::vector<std::vector<Assignment>> batches(bodies.size());
  for (size_t i = 0; i < bodies.size(); ++i) {
    // OnPoolTask also checks the cancellation token and the deadline, and
    // a trip is sticky, so the first failing body's status is the
    // budget's verdict.
    if (budget != nullptr) {
      QIMAP_RETURN_IF_ERROR(budget->OnPoolTask("trigger collection"));
    }
    uint32_t dep = profile_deps != nullptr ? (*profile_deps)[i]
                                           : obs::kProfileNoDep;
    obs::ProfiledDepScope scope(dep, obs::ProfilePhase::kCollect);
    const HomSearchOptions& opts =
        options.size() == 1 ? options[0] : options[i];
    batches[i] = delta_epoch != nullptr
                     ? FindDeltaTriggers(*bodies[i], inst, *delta_epoch, opts)
                     : FindTriggers(*bodies[i], inst, opts);
    obs::ProfileRecordTriggers(dep, batches[i].size());
  }
  if (budget != nullptr) {
    QIMAP_RETURN_IF_ERROR(budget->Check("trigger collection"));
    for (size_t i = 0; i < bodies.size(); ++i) {
      QIMAP_RETURN_IF_ERROR(budget->OnTriggerBatch("trigger collection"));
    }
  }
  return batches;
}

}  // namespace qimap
