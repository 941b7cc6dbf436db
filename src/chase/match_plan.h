#ifndef QIMAP_CHASE_MATCH_PLAN_H_
#define QIMAP_CHASE_MATCH_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/value.h"
#include "relational/atom.h"
#include "relational/homomorphism.h"
#include "relational/instance.h"
#include "relational/schema.h"

namespace qimap {

/// Compiled per-dependency match plans (following the *Laconic schema
/// mappings* direction: compile the mapping itself into executable
/// queries). Every indexed homomorphism search (`use_index` on, non-empty
/// body) compiles and runs one; the full-scan matcher (`use_index=false`)
/// is the oracle it is tested against.
///
/// A `MatchPlan` hoists the per-search work to compile time: the body is
/// compiled into an ordered step sequence with a *static* per-atom
/// access-path decision — point-lookup vs posting-probe vs scan — and
/// bound-variable propagation resolved into a flat register frame (dense
/// variable slots). Executing a plan touches no Assignment until a match
/// is actually emitted.
///
/// No plan outlives its search. A plan's steps are a pure function of the
/// body, the options' movability/side-condition bits, the partial
/// assignment's key set, and the join order; only the join order reads
/// index statistics (row counts, per-column distinct counts, literal
/// posting lengths). Each search compiles its plan into the calling
/// thread's scratch slot for its nesting depth (a search's callback may
/// start another search); the slots keep their vectors' capacity, so a
/// warmed-up search allocates nothing, and no caller owns or clears plans.
///
/// Determinism contract: the partial assignment's *values* never
/// influence compilation, so the `hom.*` and `chase.index.*` counters are
/// a pure function of the searches run, byte-identical in every metrics
/// window, like the rest of the engine.

/// How a compiled step locates candidate rows. Decided statically at
/// compile time from which argument positions are determined when the
/// step runs.
enum class PlanStepMode : uint8_t {
  /// Every argument is determined before the step runs: one full-tuple
  /// slot-table probe, no candidate loop.
  kPointLookup = 0,
  /// At least one argument is determined: probe each determined column's
  /// posting list and let the smallest drive the candidate loop.
  kProbe = 1,
  /// No argument is determined (or the atom has arity 0): full columnar
  /// scan of the relation.
  kScan = 2,
};

/// Stable lowercase name for dumps ("point_lookup", "probe", "scan").
const char* PlanStepModeName(PlanStepMode mode);

/// Where a step argument's comparison value comes from at execution time.
enum class PlanArgKind : uint8_t {
  kLiteral = 0,  ///< fixed value (constant, or frozen null/variable)
  kCheck = 1,    ///< register holding an earlier binding: compare
  kBind = 2,     ///< first occurrence of a variable: write the cell
};

struct PlanArg {
  PlanArgKind kind = PlanArgKind::kLiteral;
  uint16_t reg = 0;  ///< register slot (kCheck / kBind)
  Value literal;     ///< fixed value (kLiteral)
};

/// Side conditions compiled onto a kBind argument so they reject eagerly.
/// Conditions whose other side is not yet determined at bind time are left
/// to the final check.
struct PlanBindChecks {
  bool must_be_constant = false;
  std::vector<Value> neq_literals;  ///< `x != c` partners fixed at compile
  std::vector<uint16_t> neq_regs;   ///< `x != y` partners bound earlier
};

struct PlanStep {
  RelationId relation = 0;
  PlanStepMode mode = PlanStepMode::kScan;
  std::vector<PlanArg> args;  ///< one per column, in column order
  /// Determined columns (kProbe): each is probed and the smallest posting
  /// list drives the loop, visiting candidate rows in ascending row id.
  std::vector<uint16_t> probe_cols;
  /// Parallel to `args` when the search carries side conditions; empty
  /// otherwise. Consulted only for kBind arguments.
  std::vector<PlanBindChecks> bind_checks;
};

/// One compiled body.
struct MatchPlan {
  std::vector<PlanStep> steps;  ///< in execution order
  /// perm[step] = the atom's original position in the body as written;
  /// used to map per-step telemetry back before profiler attribution.
  std::vector<size_t> perm;
  /// Register slot -> the movable value it holds, in slot order. Slots
  /// are dense, assigned at first occurrence in execution order.
  std::vector<Value> reg_vars;
  /// Slots preloaded from the partial assignment before step 0.
  std::vector<uint16_t> preload_regs;
  /// True when the plan's shape does not depend on index statistics
  /// (single-atom bodies, and bodies where every atom is fully determined
  /// up front). Stats-free plans run in written order, all others in the
  /// greedy order over the instance's statistics.
  bool stats_free = false;

  /// Human-readable dump (one line per step) for `analyze --plan`.
  std::string ToText(const Schema& schema) const;
  /// JSON dump (object) validated by `telemetry_check --plan`; format in
  /// docs/observability.md.
  std::string ToJson(const Schema& schema) const;
};

/// Compiles `body` for searches that extend assignments whose key set
/// equals `partial`'s key set. Only the keys of `partial` are read.
MatchPlan CompileMatchPlan(const Conjunction& body, const Instance& instance,
                           const Assignment& partial,
                           const HomSearchOptions& options);

/// Does nothing: no plan outlives its search. Kept only because perfbench
/// still calls it (ROADMAP #7 drops the call).
void ClearMatchPlanCache();

/// Compiles the plan for `body` into the calling thread's scratch slot for
/// the current search nesting depth and runs it: `fn` is called for every
/// match until it returns false, or, when null, the search stops at the
/// first match without materializing it. Returns the number of matches.
/// Flushes the hom.* / chase.index.* counters and attributes per-atom
/// profiler telemetry through the plan's perm. This is the indexed path of
/// ForEachHomomorphism / HasHomomorphism; callers go through those.
size_t RunMatchPlan(const Conjunction& body, const Instance& target,
                    const Assignment& partial, const HomSearchOptions& options,
                    const std::function<bool(const Assignment&)>* fn);

}  // namespace qimap

#endif  // QIMAP_CHASE_MATCH_PLAN_H_
