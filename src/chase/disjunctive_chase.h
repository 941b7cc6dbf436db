#ifndef QIMAP_CHASE_DISJUNCTIVE_CHASE_H_
#define QIMAP_CHASE_DISJUNCTIVE_CHASE_H_

#include <vector>

#include "base/status.h"
#include "dependency/schema_mapping.h"
#include "relational/instance.h"

namespace qimap {

class Budget;  // base/budget.h

/// Options for the disjunctive chase.
struct DisjunctiveChaseOptions {
  /// Upper bound on the number of leaves of the chase tree.
  size_t max_leaves = 1u << 14;
  /// Upper bound on the number of chase steps over the whole tree.
  size_t max_steps = 1u << 20;
  /// Shared resource governor (see ChaseOptions::budget). The exploration
  /// checks it before each node, and each branched child charges its
  /// approximate copy cost — the places a cancelled or exhausted
  /// exploration winds down.
  Budget* budget = nullptr;
  /// Best-effort partial result on a budget trip: the leaves completed
  /// so far (in-flight internal nodes are discarded). See
  /// ChaseOptions::partial_out.
  std::vector<Instance>* partial_out = nullptr;
};

/// Statistics about a disjunctive chase run (same convention as
/// ChaseStats; totals are mirrored into the `dchase.*` metrics).
struct DisjunctiveChaseStats {
  /// Chase steps over the whole tree (internal-node expansions).
  size_t steps = 0;
  /// Tree nodes created (root + all children).
  size_t nodes = 0;
  /// Distinct leaves kept.
  size_t leaves = 0;
  /// Children spawned across all expansions; `branches / steps` is the
  /// average branch factor of the chase tree.
  size_t branches = 0;
  /// Leaves dropped as value-level duplicates of an earlier leaf.
  size_t dedup_dropped = 0;
  /// Fresh nulls minted for disjunct existentials.
  size_t nulls_minted = 0;
  /// True when a budget limit ended the exploration early (see
  /// ChaseStats::partial).
  bool partial = false;
};

/// The disjunctive chase of `(target_inst, ∅)` with the reverse mapping's
/// disjunctive tgds (Definitions 6.2-6.4). The target instance is fixed
/// (dependency lhs are over the target schema); each leaf of the chase
/// tree is a source instance. Returns the set `V = chase_Sigma'(U)` of
/// leaves, in breadth-first order of the tree. Fresh nulls are labeled
/// from one above the largest null label of `target_inst`. Always
/// terminates for target-to-source dependencies (there is no recursion);
/// the option limits guard against combinatorial blowup.
Result<std::vector<Instance>> DisjunctiveChase(
    const Instance& target_inst, const ReverseMapping& m,
    const DisjunctiveChaseOptions& options = {},
    DisjunctiveChaseStats* stats = nullptr);

/// Like DisjunctiveChase but aborts on error.
std::vector<Instance> MustDisjunctiveChase(
    const Instance& target_inst, const ReverseMapping& m,
    const DisjunctiveChaseOptions& options = {});

}  // namespace qimap

#endif  // QIMAP_CHASE_DISJUNCTIVE_CHASE_H_
