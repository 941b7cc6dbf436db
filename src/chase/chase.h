#ifndef QIMAP_CHASE_CHASE_H_
#define QIMAP_CHASE_CHASE_H_

#include <vector>

#include "base/status.h"
#include "dependency/schema_mapping.h"
#include "relational/instance.h"

namespace qimap {

class Budget;            // base/budget.h
struct ChaseCheckpoint;  // chase/chase_checkpoint.h

/// Options for the chase.
struct ChaseOptions {
  /// Label of the first fresh null; 0 means "one above the largest null
  /// label in the input instance" (prevents collisions when chasing
  /// instances that already contain nulls).
  uint32_t first_null_label = 0;
  /// Safety valve on the number of chase steps (s-t chases always
  /// terminate; this guards against misuse).
  size_t max_steps = 1u << 20;
  /// If true (default), every search compiles a match plan
  /// (chase/match_plan.h) over the instance's per-column posting lists
  /// and runs it: each step probes the smallest determined-column list,
  /// and ground atoms collapse to one full-tuple hash lookup. If false,
  /// every atom is matched by a full relation scan — the naive oracle the
  /// differential tests compare against. Both settings produce identical
  /// chase output (trigger batches are canonically sorted before firing).
  bool use_index = true;
  /// Shared resource governor (base/budget.h) consulted in addition to
  /// `max_steps`: wall-clock deadline, approximate memory, generated-null
  /// count, cancellation, and fault injection all flow through it. Not
  /// owned; one Budget may be shared across a whole pipeline composition
  /// so the limits bound the end-to-end run. nullptr (default) leaves
  /// only the `max_steps` valve.
  Budget* budget = nullptr;
  /// When non-null and the run trips a budget limit, receives the
  /// best-effort partial result (the target instance built so far) and
  /// the stats are flagged `partial = true`. Untouched on success and on
  /// non-budget errors.
  Instance* partial_out = nullptr;
  /// In/out incremental-resume state (chase/chase_checkpoint.h). A
  /// non-matching (or default-constructed) checkpoint records this run;
  /// a matching one resumes it: triggers are collected semi-naively over
  /// the facts added since the checkpoint epoch and the recorded run is
  /// extended — byte-identical to a full re-chase of the grown instance
  /// (facts, null labels, journal events, fingerprint). nullptr (default)
  /// disables recording and resuming.
  ChaseCheckpoint* incremental = nullptr;
};

/// Per-run statistics of one chase (the repo-wide stats convention: every
/// pipeline exposes an out-param stats struct and mirrors the totals into
/// the obs metrics registry — see docs/observability.md).
struct ChaseStats {
  /// Lhs matches examined (fired or skipped); equals the step count
  /// checked against ChaseOptions::max_steps.
  size_t steps = 0;
  /// Triggers that fired (facts were instantiated).
  size_t triggers_fired = 0;
  /// Triggers skipped because the rhs was already witnessed.
  size_t satisfaction_hits = 0;
  /// Fresh nulls minted for existential variables.
  size_t nulls_minted = 0;
  /// Facts passed to AddFact (including duplicates the instance absorbs).
  size_t facts_added = 0;
  /// True when a budget limit ended the run early and the result (if
  /// delivered via ChaseOptions::partial_out) is a prefix of the full
  /// chase, not a universal solution.
  bool partial = false;
  /// True when the run resumed a matching `ChaseOptions::incremental`
  /// checkpoint instead of chasing from scratch. The counters above then
  /// report full-run-equivalent totals (what a from-scratch chase of the
  /// same instance would report); the fields below describe the saving.
  bool resumed = false;
  /// Source facts added since the checkpoint epoch (the delta log).
  size_t delta_facts = 0;
  /// New triggers found semi-naively over the delta (vs. re-enumerating
  /// every trigger of every dependency).
  size_t delta_triggers = 0;
  /// Recorded triggers replayed from the checkpoint.
  size_t replayed_triggers = 0;
  /// Replayed triggers resolved from their recorded outcome alone — no
  /// satisfaction search was run.
  size_t checks_skipped = 0;
};

/// The standard (restricted) chase of a source instance with a finite set
/// of s-t tgds. Returns `chase_Sigma(I)`, a universal solution for the
/// instance under the mapping (paper, Section 2). The result is unique up
/// to homomorphic equivalence; this implementation is deterministic.
///
/// The source instance may contain nulls or variables (canonical
/// instances); they are treated as ordinary values, as in the paper's
/// chase of `I_beta`. The smallest universal solution is
/// `ComputeCore(*Chase(...))` (relational/instance_core.h).
Result<Instance> Chase(const Instance& source_inst, const SchemaMapping& m,
                       const ChaseOptions& options = {},
                       ChaseStats* stats = nullptr);

/// Like Chase but aborts on error (tests/examples/benchmarks).
Instance MustChase(const Instance& source_inst, const SchemaMapping& m,
                   const ChaseOptions& options = {});

}  // namespace qimap

#endif  // QIMAP_CHASE_CHASE_H_
