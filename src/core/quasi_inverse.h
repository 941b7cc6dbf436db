#ifndef QIMAP_CORE_QUASI_INVERSE_H_
#define QIMAP_CORE_QUASI_INVERSE_H_

#include "base/status.h"
#include "core/mingen.h"
#include "dependency/schema_mapping.h"

namespace qimap {

class Budget;  // base/budget.h

/// Options for the QuasiInverse algorithm.
struct QuasiInverseOptions {
  /// Emit the `Constant(x)` conjuncts. Theorem 4.6: for mappings specified
  /// by full s-t tgds they are unnecessary, so callers may disable them.
  bool include_constant_predicates = true;
  /// Drop disjuncts that are homomorphically subsumed by a more general
  /// disjunct (the paper's remark at the end of Example 4.5).
  bool prune_subsumed_disjuncts = true;
  /// Shared resource governor (see ChaseOptions::budget); also handed to
  /// every MinGen search, so one budget bounds the whole inversion.
  Budget* budget = nullptr;
  /// Best-effort partial result on a budget trip: the reverse mapping with
  /// the dependencies derived so far, flagged `partial`. See
  /// ChaseOptions::partial_out.
  ReverseMapping* partial_out = nullptr;
};

/// True iff `general` subsumes `specific` as a disjunct with shared
/// variables `x`: there is a homomorphism from `general` into the atoms of
/// `specific` fixing `x` (then `specific` logically implies
/// `exists z general`, so `specific` may be dropped from a disjunction
/// containing `general`).
bool DisjunctSubsumes(const Conjunction& general,
                      const Conjunction& specific,
                      const std::vector<Value>& x, SchemaPtr schema);

/// Removes every conjunction that is homomorphically subsumed by a more
/// general member (ties keep the earlier one). Used on the disjuncts of a
/// QuasiInverse output dependency — and exposed because it also turns the
/// raw MinGen result into the paper's hand-pruned generator lists.
std::vector<Conjunction> PruneSubsumedConjunctions(
    const std::vector<Conjunction>& conjunctions,
    const std::vector<Value>& x, SchemaPtr schema);

/// The paper's algorithm QuasiInverse (Section 4, Theorem 4.1): computes a
/// reverse mapping specified by disjunctive tgds with constants and
/// inequalities (inequalities among constants only) that is a quasi-inverse
/// of `m` whenever `m` has one. Steps: build `Sigma*`; for each member
/// `phi(x,u) -> exists y psi(x,y)` emit
///
///   psi(x,y) & Constant(x_i)... & x_i != x_j ...
///       -> OR { exists z: beta(x,z) : beta in MinGen(m, psi, x) }
///
/// Fresh generator variables are renamed to `z1, z2, ...` for display.
Result<ReverseMapping> QuasiInverse(const SchemaMapping& m,
                                    const QuasiInverseOptions& options = {});

/// Like QuasiInverse but aborts on error.
ReverseMapping MustQuasiInverse(const SchemaMapping& m,
                                const QuasiInverseOptions& options = {});

}  // namespace qimap

#endif  // QIMAP_CORE_QUASI_INVERSE_H_
