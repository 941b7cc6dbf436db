#ifndef QIMAP_CHASE_CHASE_CHECKPOINT_H_
#define QIMAP_CHASE_CHASE_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "chase/chase.h"
#include "dependency/tgd.h"
#include "relational/homomorphism.h"
#include "relational/instance.h"
#include "relational/schema.h"

namespace qimap {

/// Resume state for the incremental chase (`ChaseOptions::incremental`).
///
/// A checkpoint records everything a later run needs to *extend* a chase
/// after the source instance grew, instead of restarting: the source
/// epoch (per-relation row counts — the delta log is the rows past it),
/// a prefix fingerprint proving the instance only grew since the epoch,
/// the trigger-by-trigger outcome of the recorded run, and the chased
/// result itself. The resumed run is byte-identical to a full re-chase
/// of the grown instance — same facts, same fresh-null labels, same
/// journal events, same fingerprint; the full chase stays available as
/// the differential oracle.
///
/// The struct is an in/out parameter: pass a default-constructed (or
/// stale) checkpoint to record a run, pass it back unchanged to resume.
/// A checkpoint that does not match the current source instance or the
/// dependency set is ignored and re-recorded, so callers never need to
/// invalidate by hand. A budget trip or other error invalidates the
/// checkpoint (`valid = false`).
struct ChaseCheckpoint {
  /// False until a run completes successfully with this checkpoint
  /// installed; false again after a failed run.
  bool valid = false;
  /// Per-relation distinct-row counts of the source instance when the
  /// checkpoint was cut (`Instance::RowCounts`). The delta facts are
  /// exactly `rows(r)[source_epoch[r]..]`.
  std::vector<uint32_t> source_epoch;
  /// `Instance::Fingerprint()` at the epoch; a resume recomputes
  /// `PrefixFingerprint(source_epoch)` and requires equality, proving
  /// the epoch prefix is unchanged (insert-only storage makes this the
  /// only mutation that needs ruling out).
  uint64_t source_fingerprint = 0;
  /// `DependencyFingerprint` of the tgds and schemas of the recorded
  /// run; guards against resuming under a different mapping.
  uint64_t dependency_fingerprint = 0;
  /// First fresh-null label the recorded run used (after resolving
  /// `ChaseOptions::first_null_label` against the source instance).
  uint32_t null_base = 0;
  /// One past the last fresh-null label the recorded run minted.
  uint32_t next_null = 0;

  /// One examined trigger of the recorded run: the lhs match and whether
  /// it fired (vs. was skipped as already satisfied). Records are kept
  /// in canonical (sorted) order per dependency — the same order the
  /// full chase fires in — so a resume can merge them with the freshly
  /// found delta triggers into the full run's firing sequence.
  struct TriggerRecord {
    Assignment trigger;
    bool fired = false;
  };
  /// Outcome records, indexed by dependency.
  std::vector<std::vector<TriggerRecord>> triggers;

  /// The chased target instance. Appended-only resumes extend this in
  /// place (O(delta)); interleaved resumes replay the records instead (no
  /// trigger search, no satisfaction search).
  std::optional<Instance> result;
  /// Cumulative stats equivalent to a full chase of the epoch instance;
  /// lets an extended resume report full-run-identical stats.
  ChaseStats totals;
};

/// Order-sensitive fingerprint of a dependency list plus its schemas
/// (relation names and arities on both sides). Two calls agree iff the
/// rendered dependencies and schema shapes agree, which is what makes a
/// `ChaseCheckpoint` safe to resume under a mapping object rebuilt from
/// the same text.
uint64_t DependencyFingerprint(const std::vector<Tgd>& tgds,
                               const Schema& source, const Schema& target);

}  // namespace qimap

#endif  // QIMAP_CHASE_CHASE_CHECKPOINT_H_
