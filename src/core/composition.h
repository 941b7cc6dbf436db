#ifndef QIMAP_CORE_COMPOSITION_H_
#define QIMAP_CORE_COMPOSITION_H_

#include <cstddef>
#include <functional>

#include "base/status.h"
#include "dependency/schema_mapping.h"
#include "relational/instance.h"

namespace qimap {

/// Options for the composition-membership oracles.
struct CompositionOptions {
  /// Guard on the number of candidate null-assignments enumerated
  /// (`|pool|^k` for `k` nulls in the universal solution).
  size_t max_assignments = 1u << 22;
};

/// Decides `(i1, i2) ∈ Inst(M ∘ M')` (paper, Section 2): is there a target
/// instance `J` with `(i1, J) |= Sigma` and `(J, i2) |= Sigma'`?
///
/// This is an *exact* decision procedure, not a bounded search. Candidate
/// witnesses can be restricted to homomorphic images of `chase(i1)`:
/// solutions for `i1` are exactly the supersets of such images, and the
/// satisfaction of `Sigma'` (whose lhs is over the target schema) is
/// preserved under shrinking `J` to the image. Values outside
/// `adom(i1) ∪ adom(i2)` can be renamed to fresh nulls without affecting
/// either side, so enumerating maps from the nulls of `chase(i1)` into
/// `adom(i1) ∪ adom(i2) ∪ {fresh nulls}` is complete.
Result<bool> InComposition(const SchemaMapping& m,
                           const ReverseMapping& m_prime,
                           const Instance& i1, const Instance& i2,
                           const CompositionOptions& options = {});

/// Decides `(i, k) ∈ Inst(M12 ∘ M23)` for consecutive schema mappings
/// given by s-t tgds: is there a middle instance `J` with
/// `(i, J) |= Sigma12` and `(J, k) |= Sigma23`? Exact, by the argument of
/// InComposition with `Sigma23`-satisfaction in place of `Sigma'`. `k` may
/// contain nulls (they are treated as plain values).
///
/// `m23.source` must declare the same relations in the same order as
/// `m12.target` (relation ids are matched positionally).
Result<bool> InForwardComposition(const SchemaMapping& m12,
                                  const SchemaMapping& m23,
                                  const Instance& i, const Instance& k,
                                  const CompositionOptions& options = {});

/// The null-collapse search behind both composition-membership oracles
/// (`InComposition` and `InForwardComposition`): chases `i1` with `m` and
/// asks whether `satisfies` holds for the universal solution or for one
/// of its collapses, the images under every map from its `k` nulls into
/// `adom(i1) ∪ adom(i2) ∪ {k fresh nulls}`. When `|pool|^k` would exceed
/// `max_assignments`, returns `too_many(|pool|, k)` instead of
/// enumerating.
Result<bool> SomeNullCollapseSatisfies(
    const SchemaMapping& m, const Instance& i1, const Instance& i2,
    size_t max_assignments,
    const std::function<bool(const Instance&)>& satisfies,
    const std::function<Status(size_t pool, size_t nulls)>& too_many);

}  // namespace qimap

#endif  // QIMAP_CORE_COMPOSITION_H_
