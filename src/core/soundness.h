#ifndef QIMAP_CORE_SOUNDNESS_H_
#define QIMAP_CORE_SOUNDNESS_H_

#include <optional>
#include <vector>

#include "base/status.h"
#include "chase/disjunctive_chase.h"
#include "dependency/schema_mapping.h"
#include "relational/instance.h"

namespace qimap {

/// The artifacts of one bidirectional data-exchange round trip
/// (Definition 6.5 and Figure 1): chase a ground instance forward, chase
/// the result back with the reverse mapping's disjunctive dependencies,
/// then re-chase every recovered source instance forward.
struct RoundTrip {
  /// `U = chase_Sigma(I)`.
  Instance universal;
  /// `V = chase_Sigma'(U)`: the leaves of the disjunctive chase tree.
  std::vector<Instance> recovered;
  /// `U' = chase_Sigma(V)`, member-wise.
  std::vector<Instance> rechased;
  /// Soundness held: some member of `U'` maps homomorphically into `U`.
  bool sound = false;
  /// Faithfulness held: some member of `U'` is homomorphically equivalent
  /// to `U`.
  bool faithful = false;
  /// Index (into `recovered`/`rechased`) of a faithful witness — the
  /// "data-exchange equivalent" recovered source instance.
  std::optional<size_t> faithful_witness;
};

/// Performs the round trip of Definition 6.5 for one ground instance and
/// evaluates both soundness and faithfulness of `m_prime` with respect to
/// `m` on it. Theorem 6.7 predicts `sound` for every quasi-inverse in the
/// disjunctive-tgd language with inequalities among constants; Theorem 6.8
/// predicts `faithful` for the output of algorithm QuasiInverse.
///
/// `options` configures the disjunctive chase; its `budget` also governs
/// the forward chase and every re-chase, so one budget bounds the whole
/// round trip.
Result<RoundTrip> CheckRoundTrip(
    const SchemaMapping& m, const ReverseMapping& m_prime,
    const Instance& ground,
    const DisjunctiveChaseOptions& options = {});

}  // namespace qimap

#endif  // QIMAP_CORE_SOUNDNESS_H_
