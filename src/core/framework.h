#ifndef QIMAP_CORE_FRAMEWORK_H_
#define QIMAP_CORE_FRAMEWORK_H_

#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/composition.h"
#include "dependency/schema_mapping.h"
#include "relational/instance.h"

namespace qimap {

/// Selects an equivalence relation on ground instances for the unifying
/// framework of Section 3. `kEquality` is `=` (inverses); `kSimM` is `~M`
/// (quasi-inverses). Both are refinements of `~M`, as the framework
/// requires.
enum class EquivKind {
  kEquality,
  kSimM,
};

const char* EquivKindName(EquivKind kind);

/// The space of ground instances swept by the verifiers.
///
/// The verifiers quantify over all pairs of instances with at most
/// `max_facts` facts over `domain`. The existential witness searches of
/// Definitions 3.3 and 3.4 are resolved as follows:
///
///  * components under `=` need no witness search (exact);
///  * for LAV mappings, `~M`-constraints are per-fact, so every class
///    restricted to the domain is union-closed and has a maximum element
///    `Umax(I) = { f : Sol(I) ⊆ Sol({f}) }`; witness searches reduce to
///    exact tests against it, with no size bound at all;
///  * for non-LAV mappings, witnesses are enumerated over the same domain
///    with up to `witness_max_facts` facts (a bounded search).
///
/// In the LAV case the only approximation left is the finite domain;
/// keeping a spare constant beyond what the instances use makes
/// renamed-apart witnesses expressible.
struct BoundedSpace {
  std::vector<Value> domain;
  size_t max_facts = 2;
  /// Bound for enumerated witnesses (non-LAV mappings only).
  /// 0 means `2 * max_facts` (the canonical witnesses in the paper's
  /// proofs have the form `I1 ∪ I2`).
  size_t witness_max_facts = 0;
};

/// A pair of ground instances witnessing a failed check.
struct Counterexample {
  Instance i1;
  Instance i2;
  std::string detail;
};

/// Outcome of a bounded check. `holds == true` means the property was
/// verified for every instance pair in the space (witness searches exact
/// for LAV mappings and `=` components; bounded otherwise — see
/// BoundedSpace).
struct BoundedCheckReport {
  bool holds = true;
  std::optional<Counterexample> counterexample;
  size_t pairs_checked = 0;
  size_t composition_calls = 0;
  size_t space_size = 0;
  size_t sim_classes = 0;
};

/// Verifier for the Section 3 framework: precomputes the instance space,
/// all chases, and the `~M` classes once, then answers subset-property,
/// generalized-inverse, and unique-solutions queries.
class FrameworkChecker {
 public:
  /// The mapping must outlive the checker.
  FrameworkChecker(const SchemaMapping& m, BoundedSpace space);

  /// Decides the `(~1, ~2)`-subset property (Definition 3.4) over the
  /// space: for every pair with `Sol(M, I2) ⊆ Sol(M, I1)` there must be
  /// `(I1', I2') ~(1,2) (I1, I2)` with `I1' ⊆ I2'`.
  Result<BoundedCheckReport> CheckSubsetProperty(EquivKind eq1,
                                                 EquivKind eq2);

  /// Decides whether `m_prime` is a `(~1, ~2)`-inverse of the mapping
  /// (Definition 3.3) over the space. With `(kEquality, kEquality)` this
  /// is the inverse check; with `(kSimM, kSimM)` the quasi-inverse check
  /// (Definition 3.8).
  ///
  /// Statement 2 of Definition 3.3 exploits that `Inst(M ∘ M')` is
  /// invariant under `~M` in its first component (as in the proof of
  /// Theorem 3.5) and monotone in its second.
  Result<BoundedCheckReport> CheckGeneralizedInverse(
      const ReverseMapping& m_prime, EquivKind eq1, EquivKind eq2);

  /// Decides the unique-solutions property over the space: distinct
  /// ground instances must have distinct solution spaces (necessary for
  /// invertibility; Section 1 and Corollary 3.6).
  Result<BoundedCheckReport> CheckUniqueSolutions();

  /// The enumerated witness-space instances (populated after the first
  /// check runs); the checked pairs are the members with at most
  /// `max_facts` facts.
  const std::vector<Instance>& Instances() const { return instances_; }

  /// Number of `~M` classes in the witness space.
  size_t NumSimClasses() const { return num_classes_; }

  /// The maximum element of the `~M`-class of `inst` over the domain:
  /// the union of every domain fact `f` with `Sol(inst) ⊆ Sol({f})`.
  /// Only meaningful for LAV mappings (classes of join mappings are not
  /// union-closed). Exposed for tests and benchmarks.
  Result<Instance> SaturateClass(const Instance& inst);

 private:
  Status Prepare();

  // Statement 1 of Definition 3.3 for the pair (instances_[a],
  // instances_[b]): exists (I1', I2') ~(1,2) (I1, I2) with I1' ⊆ I2'.
  Result<bool> Statement1(size_t a, size_t b, EquivKind eq1, EquivKind eq2);

  // Statement 2 of Definition 3.3: exists (I1'', I2'') ~(1,2) (I1, I2)
  // in Inst(M ∘ M'). Counts composition-oracle calls into `report`.
  Result<bool> Statement2(const ReverseMapping& m_prime, size_t a, size_t b,
                          EquivKind eq1, EquivKind eq2,
                          BoundedCheckReport* report);

  // SaturateClass given chase(inst) instead of computing it.
  Result<Instance> SaturateChased(const Instance& inst,
                                  const Instance& chased);

  // The saturated maximum of instances_[index]'s class, memoized per
  // class and computed from chases_[index] (LAV path only).
  Result<const Instance*> SaturatedOf(size_t index);

  const SchemaMapping& m_;
  BoundedSpace space_;
  bool prepared_ = false;
  bool lav_ = false;

  std::vector<Instance> instances_;   // the witness space
  std::vector<Instance> chases_;
  std::vector<Fact> domain_facts_;    // full fact space of the domain
  std::vector<size_t> main_indices_;  // instances with <= max_facts
  std::vector<size_t> class_id_;
  std::vector<std::vector<size_t>> class_members_;
  size_t num_classes_ = 0;
  std::vector<std::optional<Instance>> saturated_;  // per class
};

}  // namespace qimap

#endif  // QIMAP_CORE_FRAMEWORK_H_
