#ifndef QIMAP_CORE_MINGEN_H_
#define QIMAP_CORE_MINGEN_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "dependency/schema_mapping.h"
#include "relational/atom.h"

namespace qimap {

class Budget;  // base/budget.h

/// Per-run statistics of the MinGen search (same convention as
/// ChaseStats; totals are mirrored into the `mingen.*` metrics).
struct MinGenStats {
  /// Specializations of a rewriting examined (each one step against
  /// MinGenOptions::max_candidates).
  size_t candidates = 0;
  /// Covers of psi by tgd conclusion atoms that unified.
  size_t covers = 0;
  /// Specializations dropped as non-minimal: a renamed twin or a strict
  /// superset of a kept one.
  size_t dominated_pruned = 0;
  /// Minimal generators returned.
  size_t generators = 0;
  /// When the provenance journal is enabled: the journal event id of each
  /// returned minimal generator, parallel to the result vector. Callers
  /// (QuasiInverse) attribute their emitted rules to these events.
  std::vector<uint64_t> generator_event_ids;
  /// True when a budget limit ended the search early (see
  /// ChaseStats::partial).
  bool partial = false;
};

/// Options for the MinGen search.
struct MinGenOptions {
  /// Step valve: MinGen takes one step per cover it tries and one per
  /// specialization it examines; exceeding it yields ResourceExhausted.
  /// The same steps are charged to `budget`, whose Tick also checks the
  /// deadline and cancellation (the minimization pass checks those too).
  /// Nulls are charged one per renamed-apart tgd-copy variable, memory
  /// one ApproxFactBytes per specialization atom.
  size_t max_candidates = 1u << 22;
  /// Optional out-param: filled with this run's search statistics.
  MinGenStats* stats = nullptr;
  /// Shared resource governor (see ChaseOptions::budget).
  Budget* budget = nullptr;
  /// Best-effort partial result on a budget trip: the specializations
  /// found so far. Each is a generator; they are left unminimized. See
  /// ChaseOptions::partial_out.
  std::vector<Conjunction>* partial_out = nullptr;
};

/// Decides whether `beta` (a conjunction of source atoms over variables
/// `x ∪ z`) is a generator of `exists y psi(x, y)` with respect to the
/// mapping's tgds (Definition 4.2): the tgd `beta -> exists y psi` must be
/// a logical consequence of Sigma, which holds iff chasing the canonical
/// instance `I_beta` with Sigma yields at least `I_psi(x, y')` for some
/// substitution `y'` for `y` (with the `x` frozen). MinGen never calls it;
/// it is the Definition 4.2 oracle the tests check MinGen against.
/// `budget`, when non-null, governs the inner chase of `I_beta`.
Result<bool> IsGenerator(const SchemaMapping& m, const Conjunction& beta,
                         const Conjunction& psi,
                         const std::vector<Value>& x,
                         Budget* budget = nullptr);

/// True iff `small` is a sub-conjunction of `big` up to a (bijective)
/// renaming of the variables not in `x`: some injective renaming of
/// small's fresh variables into big's fresh variables sends every conjunct
/// of `small` to a conjunct of `big`.
bool IsSubConjunctionUpToRenaming(const Conjunction& small,
                                  const Conjunction& big,
                                  const std::vector<Value>& x);

/// The paper's algorithm MinGen (Section 4): returns all minimal
/// generators of `exists y psi(x, y)` with respect to the mapping, up to
/// renaming of the fresh variables. `x` lists the shared variables, each
/// of which occurs in `psi`; the remaining variables of `psi` are the
/// existential `y`. `psi` and the tgds must range over variables.
///
/// The generators come from backward resolution, with no chase: each
/// cover unifies every psi atom with a conclusion atom of a renamed-apart
/// tgd copy (one copy per block of a partition of psi's atoms), the
/// copies' premises form a rewriting, and the result is the minimal
/// members, under IsSubConjunctionUpToRenaming, of the specializations of
/// the rewritings that fix `x`. Every member obeys the Lemma 4.4 bound
/// `s1 * |psi|` by construction.
///
/// The result is sorted by size, then by atoms, ranking arguments by
/// their position in `x` and fresh variables by first occurrence; fresh
/// variables are reported as `#z1, #z2, ...` in first-occurrence order.
Result<std::vector<Conjunction>> MinGen(const SchemaMapping& m,
                                        const Conjunction& psi,
                                        const std::vector<Value>& x,
                                        const MinGenOptions& options = {});

}  // namespace qimap

#endif  // QIMAP_CORE_MINGEN_H_
