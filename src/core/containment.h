#ifndef QIMAP_CORE_CONTAINMENT_H_
#define QIMAP_CORE_CONTAINMENT_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/status.h"
#include "dependency/schema_mapping.h"
#include "relational/instance.h"

namespace qimap {

/// Mapping containment in the sense of Calì-Torlone: `M = (S, T, Sigma)`
/// is contained in `M' = (S, T, Sigma')` when `Sol(M, I) ⊆ Sol(M', I)`
/// for every source instance `I` — equivalently, when `Sigma |= Sigma'`.
/// For s-t tgds this is decided per conclusion dependency by the
/// classical chase test (the same reduction core/implication.h uses):
/// chase the frozen canonical instance of `sigma'`'s lhs with `Sigma` and
/// ask whether `sigma'`'s rhs embeds with the frozen lhs values fixed.
/// s-t dependency sets are weakly acyclic by construction (source and
/// target positions are disjoint, so no cycle can exist at all), which is
/// what guarantees the inner chases terminate.
///
/// A negative verdict is constructive: the frozen canonical instance of
/// the first violated dependency is a concrete ground source instance
/// witnessing `Sol(M, I) ⊄ Sol(M', I)` (its `Sigma`-chase is a solution
/// under `M` but not under `M'`), and the report carries both.

/// One conclusion dependency's verdict.
struct ContainmentVerdict {
  size_t index = 0;  ///< position in the superset mapping's tgd list
  bool implied = false;
  /// True when the dependency was decided by the syntactic fast path
  /// (textually a member of Sigma) without chasing.
  bool syntactic = false;
  std::string dependency;  ///< the conclusion tgd as written
};

/// The full containment report.
struct ContainmentReport {
  /// `Sol(M, I) ⊆ Sol(M', I)` for all `I`.
  bool holds = false;
  std::vector<ContainmentVerdict> verdicts;
  size_t tgds_checked = 0;
  size_t chases = 0;          ///< canonical-instance chases performed
  size_t syntactic_hits = 0;  ///< verdicts that needed no chase
  /// The violated conclusion dependency (empty when the containment
  /// holds).
  std::string witness;
  /// Ground counterexample: the frozen canonical instance of the first
  /// violated dependency's lhs, and its chase under the sub-mapping.
  std::optional<Instance> counterexample;
  std::optional<Instance> counterexample_chase;
  /// True when a budget limit ended the check early and `verdicts` covers
  /// only a prefix of the conclusion dependencies.
  bool partial = false;

  /// One-line rendering for the CLI ("contained" / "NOT contained ...").
  std::string Summary() const;
};

struct ContainmentOptions {
  /// Shared resource governor; on exhaustion the check returns the budget
  /// status and delivers the verdicts so far through `partial_out`.
  Budget* budget = nullptr;
  ContainmentReport* partial_out = nullptr;
};

/// Decides whether `sub` is contained in `super`. The two mappings must
/// share both schemas (FailedPrecondition otherwise).
Result<ContainmentReport> CheckContainment(
    const SchemaMapping& sub, const SchemaMapping& super,
    const ContainmentOptions& options = {});

/// Convenience: the boolean verdict alone.
Result<bool> MappingContained(const SchemaMapping& sub,
                              const SchemaMapping& super);

}  // namespace qimap

#endif  // QIMAP_CORE_CONTAINMENT_H_
