#ifndef QIMAP_CHASE_TRIGGER_FINDER_H_
#define QIMAP_CHASE_TRIGGER_FINDER_H_

#include <vector>

#include "base/budget.h"
#include "base/status.h"
#include "relational/homomorphism.h"
#include "relational/instance.h"

namespace qimap {

/// Trigger finding shared by the chase engines: collects all lhs matches
/// of a dependency body against an instance and canonically sorts them.
///
/// The sort is the engines' determinism anchor. Index-first matching (and
/// the index-informed join order behind it) can enumerate homomorphisms in
/// a different order than the naive full scan; sorting every batch before
/// any trigger fires makes chase output — including fresh-null labels and
/// provenance-journal order — a pure function of the input, identical
/// across `use_index` on/off.
///
/// All matches are collected before any fires because s-t (and
/// target-to-source) dependency bodies read only the fixed input side, so
/// firing cannot create new lhs matches; the target-constraint fixpoint in
/// target_chase.cc re-collects per iteration instead.

/// All homomorphisms from `body` into `inst`, sorted.
std::vector<Assignment> FindTriggers(const Conjunction& body,
                                     const Instance& inst,
                                     const HomSearchOptions& options);

/// Semi-naive trigger finding: exactly the matches of `body` against
/// `inst` that use at least one *delta* fact — a row added after `epoch`
/// (an `Instance::RowCounts` snapshot; see ChaseCheckpoint) — sorted.
///
/// `FindTriggers(body, inst)` is the disjoint union of the old matches
/// (every atom lands in the epoch prefix) and this delta set: rows are
/// deduplicated, so a match touching any post-epoch row cannot also be a
/// prefix match. Each (body atom, delta fact) pair is unified into a
/// partial assignment and handed to the seeded homomorphism search, the
/// standard semi-naive evaluation step; a match touching several delta
/// facts is found from several seeds and deduplicated here. Cost is
/// proportional to the delta and its join fan-out, not to `inst`.
std::vector<Assignment> FindDeltaTriggers(const Conjunction& body,
                                          const Instance& inst,
                                          const std::vector<uint32_t>& epoch,
                                          const HomSearchOptions& options);

/// One sorted trigger list per body, collected in body order. Every body
/// is matched with `options[i]` — pass a single-element vector to share
/// one option set.
///
/// When `budget` is non-null, each body first checks in with
/// `Budget::OnPoolTask` (cancellation, deadline, injected task faults),
/// so a cancelled token stops the collection before the next body, and
/// each collected body passes the `Budget::OnTriggerBatch` fault site.
/// Returns the budget's structured status (the first failing body's)
/// instead of the batches when a limit trips.
///
/// When `delta_epoch` is non-null every body is collected semi-naively
/// (`FindDeltaTriggers` against that epoch) instead of in full — the
/// incremental chase's phase 1.
///
/// When `profile_deps` is non-null (one profiler dependency id per body,
/// see obs/profiler.h), each body's collection runs under that id's
/// collect-phase scope and its sorted batch size is recorded, so the
/// per-atom search telemetry lands on the right dependency.
Result<std::vector<std::vector<Assignment>>> FindTriggerBatches(
    const std::vector<const Conjunction*>& bodies,
    const std::vector<HomSearchOptions>& options, const Instance& inst,
    Budget* budget = nullptr,
    const std::vector<uint32_t>* delta_epoch = nullptr,
    const std::vector<uint32_t>* profile_deps = nullptr);

}  // namespace qimap

#endif  // QIMAP_CHASE_TRIGGER_FINDER_H_
