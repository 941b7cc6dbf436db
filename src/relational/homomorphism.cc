#include "relational/homomorphism.h"

#include <algorithm>
#include <set>

#include "chase/match_plan.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace qimap {

bool IsMovableValue(const Value& v, const HomSearchOptions& options) {
  switch (v.kind()) {
    case ValueKind::kConstant:
      return false;
    case ValueKind::kNull:
      return options.map_nulls;
    case ValueKind::kVariable:
      return options.map_variables;
  }
  return false;
}

namespace {

// True if this value kind is movable under the options.
bool IsMovable(const Value& v, const HomSearchOptions& options) {
  return IsMovableValue(v, options);
}

// Recursive backtracking matcher.
class Matcher {
 public:
  Matcher(const Conjunction& body, const Instance& target,
          const HomSearchOptions& options,
          const std::function<bool(const Assignment&)>& fn)
      : body_(body),
        target_(target),
        options_(options),
        fn_(fn),
        atom_counts_(body.size()) {}

  // Returns the number of homomorphisms found (may stop early if fn says
  // so).
  size_t Run(Assignment assignment) {
    assignment_ = std::move(assignment);
    stop_ = false;
    count_ = 0;
    Search(0);
    return count_;
  }

  // Search telemetry, accumulated per body-atom position (in join order)
  // so the inner loop stays free of shared-state writes; the caller
  // flushes the summed totals to the metrics registry once per search and
  // hands the per-atom breakdown to the profiler when one is active.
  const std::vector<obs::ProfileAtomCounters>& atom_counts() const {
    return atom_counts_;
  }
  // Candidate tuples rejected by unification, summed over atoms.
  size_t backtracks() const {
    size_t total = 0;
    for (const auto& a : atom_counts_) total += a.unify_fails;
    return total;
  }
  // Index telemetry, flushed by the caller into chase.index.*.
  size_t index_probes() const {
    size_t total = 0;
    for (const auto& a : atom_counts_) total += a.probes;
    return total;
  }
  size_t index_hits() const { return index_hits_; }
  size_t point_lookups() const { return point_lookups_; }
  size_t index_rows() const {
    size_t total = 0;
    for (const auto& a : atom_counts_) total += a.probe_rows;
    return total;
  }
  size_t scan_rows() const {
    size_t total = 0;
    for (const auto& a : atom_counts_) total += a.scan_rows;
    return total;
  }

 private:
  // Tries to unify atom `index` with each candidate row of its relation,
  // then recurses. Index-first over every column: each argument that is
  // already determined (a constant, a frozen value, or a variable bound
  // by an earlier atom) has a posting list, and the *smallest* such list
  // drives the candidate loop. When all arguments are determined the atom
  // degenerates to one full-tuple hash probe (no candidate loop at all).
  // Undetermined-only atoms fall back to a columnar scan. All paths visit
  // candidate rows in ascending row id, so they unify the same matches in
  // the same order.
  void Search(size_t index) {
    if (stop_) return;
    if (index == body_.size()) {
      if (FinalCheck()) {
        ++count_;
        if (!fn_(assignment_)) stop_ = true;
      }
      return;
    }
    const Atom& atom = body_[index];
    const RelationId rel = atom.relation;
    const std::vector<uint32_t>* candidates = nullptr;
    if (options_.use_index && !atom.args.empty()) {
      bool all_determined = true;
      for (const Value& arg : atom.args) {
        if (IsMovable(arg, options_) && assignment_.count(arg) == 0) {
          all_determined = false;
          break;
        }
      }
      if (all_determined) {
        // Ground atom: one hash probe against the full-tuple slot table
        // replaces the candidate loop. No bindings are added, so side
        // conditions cannot fire here; FinalCheck re-validates them all.
        ++point_lookups_;
        ++atom_counts_[index].probes;
        Tuple probe;
        probe.reserve(atom.args.size());
        for (const Value& arg : atom.args) {
          probe.push_back(Resolve(assignment_, arg));
        }
        if (!target_.ContainsFact(rel, probe)) return;
        ++index_hits_;
        ++atom_counts_[index].probe_rows;
        Search(index + 1);
        return;
      }
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const Value& arg = atom.args[i];
        if (IsMovable(arg, options_) && assignment_.count(arg) == 0) {
          continue;  // undetermined: no probe value yet
        }
        ++atom_counts_[index].probes;
        const std::vector<uint32_t>* ids =
            target_.RowsWith(rel, static_cast<uint32_t>(i),
                             Resolve(assignment_, arg));
        if (ids == nullptr) return;  // no row carries this column value
        ++index_hits_;
        if (candidates == nullptr || ids->size() < candidates->size()) {
          candidates = ids;
        }
      }
    }
    size_t num_candidates =
        candidates != nullptr ? candidates->size() : target_.NumRows(rel);
    for (size_t c = 0; c < num_candidates; ++c) {
      uint32_t row = candidates != nullptr
                         ? (*candidates)[c]
                         : static_cast<uint32_t>(c);
      if (candidates != nullptr) {
        ++atom_counts_[index].probe_rows;
      } else {
        ++atom_counts_[index].scan_rows;
      }
      std::vector<Value> bound;  // values newly bound by this atom
      if (UnifyAtom(atom, rel, row, &bound)) {
        Search(index + 1);
      } else {
        ++atom_counts_[index].unify_fails;
      }
      for (const Value& v : bound) assignment_.erase(v);
      if (stop_) return;
    }
  }

  // Attempts to extend assignment_ so that atom maps onto row `row` of
  // its relation (cells read straight from the column store). On success,
  // records newly bound values in `bound` and returns true; on failure,
  // removes any bindings it added and returns false.
  bool UnifyAtom(const Atom& atom, RelationId rel, uint32_t row,
                 std::vector<Value>* bound) {
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Value& arg = atom.args[i];
      const Value& val = target_.at(rel, row, static_cast<uint32_t>(i));
      if (IsMovable(arg, options_)) {
        auto it = assignment_.find(arg);
        if (it != assignment_.end()) {
          if (it->second != val) {
            Rollback(bound);
            return false;
          }
        } else {
          if (!BindOk(arg, val)) {
            Rollback(bound);
            return false;
          }
          assignment_.emplace(arg, val);
          bound->push_back(arg);
        }
      } else {
        if (arg != val) {
          Rollback(bound);
          return false;
        }
      }
    }
    return true;
  }

  // Eagerly rejects bindings that violate a fully-determined side
  // condition.
  bool BindOk(const Value& var, const Value& val) {
    for (const Value& v : options_.must_be_constant) {
      if (v == var && !val.IsConstant()) return false;
    }
    for (const auto& [a, b] : options_.inequalities) {
      const Value* other = nullptr;
      if (a == var) {
        other = &b;
      } else if (b == var) {
        other = &a;
      } else {
        continue;
      }
      Value resolved = Resolve(assignment_, *other);
      bool other_known = other->IsConstant() ||
                         assignment_.count(*other) > 0 ||
                         !IsMovable(*other, options_);
      if (other_known && resolved == val) return false;
    }
    return true;
  }

  void Rollback(std::vector<Value>* bound) {
    for (const Value& v : *bound) assignment_.erase(v);
    bound->clear();
  }

  // Re-checks every side condition on the complete assignment. This also
  // covers conditions over non-movable values standing for themselves.
  bool FinalCheck() {
    for (const Value& v : options_.must_be_constant) {
      if (!Resolve(assignment_, v).IsConstant()) return false;
    }
    for (const auto& [a, b] : options_.inequalities) {
      if (Resolve(assignment_, a) == Resolve(assignment_, b)) return false;
    }
    return true;
  }

  const Conjunction& body_;
  const Instance& target_;
  const HomSearchOptions& options_;
  const std::function<bool(const Assignment&)>& fn_;
  Assignment assignment_;
  bool stop_ = false;
  size_t count_ = 0;
  size_t index_hits_ = 0;
  size_t point_lookups_ = 0;
  // Indexed by the atom's position in body_ (the join order).
  std::vector<obs::ProfileAtomCounters> atom_counts_;
};

// Greedy static atom order: repeatedly pick the atom with the fewest
// unbound movable arguments, breaking ties by the smaller estimated
// candidate count. With the index on, every determined argument position
// is costed: an argument whose probe value is already known here (a
// literal constant, or pinned by `partial`) is costed by its exact
// posting-list length, and an argument that will only be bound by an
// earlier atom at match time is costed by the column's incremental
// distinct count (rows / distinct ≈ expected list length). The smallest
// estimate across the atom's determined columns wins. `perm` (when
// non-null) receives the permutation: perm[ordered position] = original
// position in `body`, so callers can map the matcher's per-atom telemetry
// back to the atoms as written.
Conjunction OrderAtoms(const Conjunction& body, const Instance& target,
                       const Assignment& partial,
                       const HomSearchOptions& options,
                       std::vector<size_t>* perm = nullptr) {
  std::vector<bool> used(body.size(), false);
  std::set<Value> bound;
  for (const auto& [k, v] : partial) bound.insert(k);
  Conjunction ordered;
  ordered.reserve(body.size());
  for (size_t step = 0; step < body.size(); ++step) {
    size_t best = body.size();
    size_t best_unbound = SIZE_MAX;
    size_t best_extent = SIZE_MAX;
    for (size_t i = 0; i < body.size(); ++i) {
      if (used[i]) continue;
      size_t unbound = 0;
      for (const Value& v : body[i].args) {
        if (IsMovable(v, options) && bound.count(v) == 0) ++unbound;
      }
      const size_t rows = target.NumRows(body[i].relation);
      size_t extent = rows;
      if (options.use_index) {
        for (size_t a = 0; a < body[i].args.size(); ++a) {
          const Value& arg = body[i].args[a];
          size_t estimate = SIZE_MAX;
          auto it = partial.find(arg);
          if (it != partial.end() || !IsMovable(arg, options)) {
            const Value& probe = it != partial.end() ? it->second : arg;
            const std::vector<uint32_t>* ids = target.RowsWith(
                body[i].relation, static_cast<uint32_t>(a), probe);
            estimate = ids != nullptr ? ids->size() : 0;
          } else if (bound.count(arg) > 0) {
            uint32_t distinct = target.ColumnDistinct(
                body[i].relation, static_cast<uint32_t>(a));
            estimate = distinct > 0 ? (rows + distinct - 1) / distinct
                                    : rows;
          }
          extent = std::min(extent, estimate);
        }
      }
      if (extent == 0) {
        // Provably empty atom (an exact posting probe came back empty, or
        // the relation has no rows): no candidate loop here can yield a
        // row, so the whole search is empty. Pick it immediately — ahead
        // of any atom with fewer unbound arguments — and the matcher
        // prunes in O(1) instead of enumerating rows first.
        best = i;
        break;
      }
      if (unbound < best_unbound ||
          (unbound == best_unbound && extent < best_extent)) {
        best = i;
        best_unbound = unbound;
        best_extent = extent;
      }
    }
    used[best] = true;
    if (perm != nullptr) perm->push_back(best);
    ordered.push_back(body[best]);
    for (const Value& v : body[best].args) {
      if (IsMovable(v, options)) bound.insert(v);
    }
  }
  return ordered;
}

}  // namespace

Value Resolve(const Assignment& assignment, const Value& value) {
  auto it = assignment.find(value);
  return it != assignment.end() ? it->second : value;
}

std::string AssignmentToString(const Assignment& assignment) {
  std::string out;
  for (const auto& [from, to] : assignment) {
    if (!out.empty()) out += ", ";
    out += from.ToString() + "=" + to.ToString();
  }
  return out;
}

namespace {

// The interpretive search behind ForEachHomomorphism and HasHomomorphism.
size_t InterpretiveSearch(const Conjunction& body, const Instance& target,
                          const Assignment& partial,
                          const HomSearchOptions& options,
                          const std::function<bool(const Assignment&)>& fn) {
  static const obs::MetricId kSearches =
      obs::RegisterCounter("hom.searches");
  static const obs::MetricId kMatches =
      obs::RegisterCounter("hom.matches");
  static const obs::MetricId kBacktracks =
      obs::RegisterCounter("hom.backtracks");
  static const obs::MetricId kIndexLookups =
      obs::RegisterCounter("chase.index.lookups");
  static const obs::MetricId kIndexHits =
      obs::RegisterCounter("chase.index.hits");
  static const obs::MetricId kIndexRows =
      obs::RegisterCounter("chase.index.rows");
  static const obs::MetricId kScanRows =
      obs::RegisterCounter("chase.index.scan_rows");
  static const obs::MetricId kPointLookups =
      obs::RegisterCounter("chase.index.point_lookups");
  std::vector<size_t> perm;
  const bool profiled = obs::ProfileSearchActive();
  Conjunction ordered =
      OrderAtoms(body, target, partial, options, profiled ? &perm : nullptr);
  Matcher matcher(ordered, target, options, fn);
  size_t count = matcher.Run(partial);
  obs::CounterAdd(kSearches);
  obs::CounterAdd(kMatches, count);
  obs::CounterAdd(kBacktracks, matcher.backtracks());
  obs::CounterAdd(kIndexLookups, matcher.index_probes());
  obs::CounterAdd(kIndexHits, matcher.index_hits());
  obs::CounterAdd(kIndexRows, matcher.index_rows());
  obs::CounterAdd(kScanRows, matcher.scan_rows());
  obs::CounterAdd(kPointLookups, matcher.point_lookups());
  if (profiled) {
    // Map the per-atom telemetry (accumulated in join order) back to the
    // body's positions as written before attributing it.
    std::vector<obs::ProfileAtomCounters> atoms(body.size());
    for (size_t p = 0; p < perm.size(); ++p) {
      atoms[perm[p]] = matcher.atom_counts()[p];
    }
    obs::ProfileRecordSearch(count, matcher.backtracks(), atoms);
  }
  return count;
}

// Compiled path: a cached per-body plan with a flat register frame
// (chase/match_plan.h). The interpretive matcher remains the differential
// oracle (`use_compiled_plan=false`), and the full-scan oracle
// (`use_index=false`) stays interpretive and naive.
bool UsesCompiledPlan(const Conjunction& body,
                      const HomSearchOptions& options) {
  return options.use_compiled_plan && options.use_index && !body.empty();
}

}  // namespace

size_t ForEachHomomorphism(const Conjunction& body, const Instance& target,
                           const Assignment& partial,
                           const HomSearchOptions& options,
                           const std::function<bool(const Assignment&)>& fn) {
  if (UsesCompiledPlan(body, options)) {
    return ForEachPlanMatch(body, target, partial, options, fn);
  }
  return InterpretiveSearch(body, target, partial, options, fn);
}

bool HasHomomorphism(const Conjunction& body, const Instance& target,
                     const Assignment& partial,
                     const HomSearchOptions& options) {
  if (UsesCompiledPlan(body, options)) {
    return HasPlanMatch(body, target, partial, options);
  }
  static const std::function<bool(const Assignment&)> kStopAtFirst =
      [](const Assignment&) { return false; };
  return InterpretiveSearch(body, target, partial, options, kStopAtFirst) >
         0;
}

std::optional<Assignment> FindHomomorphism(const Conjunction& body,
                                           const Instance& target,
                                           const Assignment& partial,
                                           const HomSearchOptions& options) {
  std::optional<Assignment> found;
  ForEachHomomorphism(body, target, partial, options,
                      [&](const Assignment& a) {
                        found = a;
                        return false;  // stop at the first one
                      });
  return found;
}

std::vector<Assignment> FindAllHomomorphisms(const Conjunction& body,
                                             const Instance& target,
                                             const Assignment& partial,
                                             const HomSearchOptions& options) {
  std::vector<Assignment> out;
  ForEachHomomorphism(body, target, partial, options,
                      [&](const Assignment& a) {
                        out.push_back(a);
                        return true;
                      });
  return out;
}

bool ExistsInstanceHomomorphism(const Instance& from, const Instance& to,
                                bool map_variables) {
  Conjunction body;
  for (const Fact& fact : from.Facts()) {
    body.push_back(Atom{fact.relation, fact.tuple});
  }
  HomSearchOptions options;
  options.map_nulls = true;
  options.map_variables = map_variables;
  return HasHomomorphism(body, to, {}, options);
}

bool HomomorphicallyEquivalent(const Instance& a, const Instance& b) {
  return ExistsInstanceHomomorphism(a, b) &&
         ExistsInstanceHomomorphism(b, a);
}

Instance ApplyAssignmentToInstance(const Instance& instance,
                                   const Assignment& assignment) {
  Instance out(instance.schema());
  for (const Fact& fact : instance.Facts()) {
    Tuple mapped;
    mapped.reserve(fact.tuple.size());
    for (const Value& v : fact.tuple) {
      mapped.push_back(Resolve(assignment, v));
    }
    Status status = out.AddFact(fact.relation, std::move(mapped));
    (void)status;  // same schema: cannot fail
  }
  return out;
}

Conjunction ApplyAssignmentToConjunction(const Conjunction& conjunction,
                                         const Assignment& assignment) {
  Conjunction out;
  out.reserve(conjunction.size());
  for (const Atom& atom : conjunction) {
    Atom mapped = atom;
    for (Value& v : mapped.args) v = Resolve(assignment, v);
    out.push_back(std::move(mapped));
  }
  return out;
}

}  // namespace qimap
