#ifndef QIMAP_CHASE_TARGET_CHASE_H_
#define QIMAP_CHASE_TARGET_CHASE_H_

#include "base/status.h"
#include "chase/chase.h"
#include "dependency/egd.h"
#include "dependency/schema_mapping.h"
#include "relational/instance.h"

namespace qimap {

/// Options for the chase with target constraints.
struct TargetChaseOptions {
  /// Bound on the number of fixpoint steps. Target tgds may recurse;
  /// unlike the s-t chase this can genuinely diverge unless the target
  /// tgds are weakly acyclic (core/weak_acyclicity.h).
  size_t max_steps = 1u << 16;
  /// Shared resource governor (see ChaseOptions::budget); also handed to
  /// the inner s-t chase so one budget bounds the whole exchange.
  Budget* budget = nullptr;
  /// Best-effort partial solution on a budget trip (the target instance
  /// closed so far); see ChaseOptions::partial_out.
  Instance* partial_out = nullptr;
};

/// Per-run statistics of the target-constraint fixpoint loop (same
/// convention as ChaseStats; totals are mirrored into the `tchase.*`
/// metrics). Steps of the s-t phase are reported separately through the
/// ChaseStats of the inner Chase call.
struct TargetChaseStats {
  /// Fixpoint iterations (each applies at most one egd or tgd step).
  size_t steps = 0;
  /// Egd steps applied (two values merged).
  size_t egd_merges = 0;
  /// Target-tgd triggers fired.
  size_t tgd_fires = 0;
  /// Fresh nulls minted for target-tgd existentials.
  size_t nulls_minted = 0;
  /// True when a budget limit ended the fixpoint early (see
  /// ChaseStats::partial).
  bool partial = false;
};

/// The result of a constraint-aware data exchange.
struct TargetChaseResult {
  /// Set when the chase succeeded: a universal solution satisfying the
  /// source-to-target dependencies and the target constraints.
  Instance solution;
  /// True when an egd tried to equate two distinct constants: the data
  /// exchange problem has NO solution (the paper's [4], chase failure).
  bool failed = false;
  size_t steps = 0;
  TargetChaseStats stats;
};

/// Data exchange in the full setting of the paper's [4]: chases `source`
/// with the s-t tgds of `m`, then closes the target instance under the
/// target tgds and egds to a fixpoint. Egd steps equate values (nulls
/// yield to constants and to older nulls); equating two distinct
/// constants marks the exchange as failed. Termination is guaranteed for
/// weakly acyclic target tgds; otherwise the step bound returns
/// ResourceExhausted.
Result<TargetChaseResult> ChaseWithTargetConstraints(
    const Instance& source_inst, const SchemaMapping& m,
    const TargetConstraints& constraints,
    const TargetChaseOptions& options = {});

}  // namespace qimap

#endif  // QIMAP_CHASE_TARGET_CHASE_H_
