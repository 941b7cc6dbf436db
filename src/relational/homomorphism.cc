#include "relational/homomorphism.h"

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

// Recursive backtracking matcher over full relation scans: the naive
// oracle (`use_index=false`) the compiled match plan is tested against.
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
  size_t scan_rows() const {
    size_t total = 0;
    for (const auto& a : atom_counts_) total += a.scan_rows;
    return total;
  }

 private:
  // Tries to unify atom `index` with each row of its relation, in
  // ascending row id, then recurses.
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
    const size_t rows = target_.NumRows(atom.relation);
    for (size_t row = 0; row < rows; ++row) {
      ++atom_counts_[index].scan_rows;
      std::vector<Value> bound;  // values newly bound by this atom
      if (UnifyAtom(atom, static_cast<uint32_t>(row), &bound)) {
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
  bool UnifyAtom(const Atom& atom, uint32_t row, std::vector<Value>* bound) {
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Value& arg = atom.args[i];
      const Value& val =
          target_.at(atom.relation, row, static_cast<uint32_t>(i));
      if (IsMovableValue(arg, options_)) {
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
                         !IsMovableValue(*other, options_);
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
  // Indexed by the atom's position in body_ (the join order).
  std::vector<obs::ProfileAtomCounters> atom_counts_;
};

// Greedy static atom order for the full scan: an atom over an empty
// relation first (the search is empty, so it prunes in O(1)), then
// repeatedly the atom with the fewest unbound movable arguments, breaking
// ties by the smaller relation. `perm` (when non-null) receives the
// permutation: perm[ordered position] = original position in `body`, so
// callers can map the matcher's per-atom telemetry back to the atoms as
// written.
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
    size_t best_rows = SIZE_MAX;
    for (size_t i = 0; i < body.size(); ++i) {
      if (used[i]) continue;
      const size_t rows = target.NumRows(body[i].relation);
      if (rows == 0) {
        best = i;
        break;
      }
      size_t unbound = 0;
      for (const Value& v : body[i].args) {
        if (IsMovableValue(v, options) && bound.count(v) == 0) ++unbound;
      }
      if (unbound < best_unbound ||
          (unbound == best_unbound && rows < best_rows)) {
        best = i;
        best_unbound = unbound;
        best_rows = rows;
      }
    }
    used[best] = true;
    if (perm != nullptr) perm->push_back(best);
    ordered.push_back(body[best]);
    for (const Value& v : body[best].args) {
      if (IsMovableValue(v, options)) bound.insert(v);
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

// The full-scan search behind ForEachHomomorphism and HasHomomorphism
// when the index is off (or the body is empty).
size_t FullScanSearch(const Conjunction& body, const Instance& target,
                      const Assignment& partial,
                      const HomSearchOptions& options,
                      const std::function<bool(const Assignment&)>& fn) {
  static const obs::MetricId kSearches =
      obs::RegisterCounter("hom.searches");
  static const obs::MetricId kMatches =
      obs::RegisterCounter("hom.matches");
  static const obs::MetricId kBacktracks =
      obs::RegisterCounter("hom.backtracks");
  static const obs::MetricId kScanRows =
      obs::RegisterCounter("chase.index.scan_rows");
  std::vector<size_t> perm;
  const bool profiled = obs::ProfileSearchActive();
  Conjunction ordered =
      OrderAtoms(body, target, partial, options, profiled ? &perm : nullptr);
  Matcher matcher(ordered, target, options, fn);
  size_t count = matcher.Run(partial);
  obs::CounterAdd(kSearches);
  obs::CounterAdd(kMatches, count);
  obs::CounterAdd(kBacktracks, matcher.backtracks());
  obs::CounterAdd(kScanRows, matcher.scan_rows());
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

}  // namespace

size_t ForEachHomomorphism(const Conjunction& body, const Instance& target,
                           const Assignment& partial,
                           const HomSearchOptions& options,
                           const std::function<bool(const Assignment&)>& fn) {
  if (options.use_index && !body.empty()) {
    return RunMatchPlan(body, target, partial, options, &fn);
  }
  return FullScanSearch(body, target, partial, options, fn);
}

bool HasHomomorphism(const Conjunction& body, const Instance& target,
                     const Assignment& partial,
                     const HomSearchOptions& options) {
  if (options.use_index && !body.empty()) {
    return RunMatchPlan(body, target, partial, options, nullptr) > 0;
  }
  static const std::function<bool(const Assignment&)> kStopAtFirst =
      [](const Assignment&) { return false; };
  return FullScanSearch(body, target, partial, options, kStopAtFirst) > 0;
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
