#ifndef QIMAP_RELATIONAL_HOMOMORPHISM_H_
#define QIMAP_RELATIONAL_HOMOMORPHISM_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/value.h"
#include "relational/assignment.h"
#include "relational/atom.h"
#include "relational/instance.h"

namespace qimap {

/// Options controlling which value kinds are movable during homomorphism
/// search, plus side constraints in the style of Definition 6.2.
struct HomSearchOptions {
  /// If true, nulls in the body map anywhere; if false they must match
  /// identically (used when treating nulls as frozen).
  bool map_nulls = true;
  /// If true, variables in the body map anywhere; if false they must match
  /// identically (used for canonical instances with frozen variables).
  bool map_variables = true;
  /// If true (default), a non-empty body is matched by a compiled match
  /// plan (chase/match_plan.h): every search runs the plan compiled for
  /// its bound-key set and the greedy join order over the instance's
  /// current statistics, a step sequence with static point-lookup /
  /// posting-probe / scan decisions over the instance's per-column posting
  /// lists and a flat register frame. If false, every
  /// atom is matched by a full scan of its relation — the naive oracle the
  /// differential tests compare against (`ChaseOptions::use_index=false`).
  /// Both paths enumerate exactly the same set of homomorphisms; the
  /// enumeration order may differ (the index also informs the join
  /// order), which is why the chase engines sort trigger batches
  /// canonically before firing.
  bool use_index = true;
  /// `Constant(x)` side conditions: each listed value must be assigned a
  /// constant (Definition 6.2, condition (3)).
  std::vector<Value> must_be_constant;
  /// `x != y` side conditions (Definition 6.2, condition (2)).
  std::vector<std::pair<Value, Value>> inequalities;
};

/// True iff the matcher may (re)bind `v` under `options`: variables when
/// `map_variables`, nulls when `map_nulls`; constants never. The semi-naive
/// trigger seeder uses the same predicate so its partial assignments agree
/// with the matcher's notion of a binding.
bool IsMovableValue(const Value& v, const HomSearchOptions& options);

/// Looks the value up in the assignment; constants (and non-movable kinds)
/// map to themselves when absent.
Value Resolve(const Assignment& assignment, const Value& value);

/// Renders an assignment as `x=a, y=_N1` in key order (used by the
/// provenance journal to record trigger bindings).
std::string AssignmentToString(const Assignment& assignment);

/// Searches for a homomorphism extending `partial` that maps every atom of
/// `body` onto a fact of `target` and satisfies the side conditions in
/// `options`. Returns the full assignment for the movable values of `body`,
/// or nullopt.
std::optional<Assignment> FindHomomorphism(const Conjunction& body,
                                           const Instance& target,
                                           const Assignment& partial,
                                           const HomSearchOptions& options);

/// True iff FindHomomorphism would find one: the same search, stopped at
/// the first match without materializing it (satisfaction checks). Flushes
/// exactly the counters FindHomomorphism flushes.
bool HasHomomorphism(const Conjunction& body, const Instance& target,
                     const Assignment& partial,
                     const HomSearchOptions& options);

/// Invokes `fn` for every homomorphism (conjunctive-query evaluation).
/// If `fn` returns false the search stops early. Returns the number of
/// homomorphisms enumerated.
size_t ForEachHomomorphism(const Conjunction& body, const Instance& target,
                           const Assignment& partial,
                           const HomSearchOptions& options,
                           const std::function<bool(const Assignment&)>& fn);

/// All homomorphisms from `body` into `target` extending `partial`.
std::vector<Assignment> FindAllHomomorphisms(const Conjunction& body,
                                             const Instance& target,
                                             const Assignment& partial,
                                             const HomSearchOptions& options);

/// True iff there is a homomorphism from `from` to `to`: a map fixing
/// constants (and, unless `map_variables`, variables) that sends every fact
/// of `from` to a fact of `to`. This is the paper's instance homomorphism.
bool ExistsInstanceHomomorphism(const Instance& from, const Instance& to,
                                bool map_variables = true);

/// True iff there are homomorphisms both ways (paper, Section 2).
bool HomomorphicallyEquivalent(const Instance& a, const Instance& b);

/// Applies `assignment` to every value of `instance` (unassigned values map
/// to themselves), producing the homomorphic image h(instance).
Instance ApplyAssignmentToInstance(const Instance& instance,
                                   const Assignment& assignment);

/// Applies `assignment` to the arguments of every atom.
Conjunction ApplyAssignmentToConjunction(const Conjunction& conjunction,
                                         const Assignment& assignment);

}  // namespace qimap

#endif  // QIMAP_RELATIONAL_HOMOMORPHISM_H_
