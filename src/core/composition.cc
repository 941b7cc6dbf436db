#include "core/composition.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "dependency/satisfaction.h"
#include "relational/homomorphism.h"

namespace qimap {

Result<bool> InComposition(const SchemaMapping& m,
                           const ReverseMapping& m_prime,
                           const Instance& i1, const Instance& i2,
                           const CompositionOptions& options) {
  return SomeNullCollapseSatisfies(
      m, i1, i2, options.max_assignments,
      [&](const Instance& j) { return SatisfiesAllReverse(j, i2, m_prime); },
      [](size_t pool, size_t nulls) {
        return Status::ResourceExhausted(
            "composition oracle: too many null assignments (" +
            std::to_string(pool) + "^" + std::to_string(nulls) + ")");
      });
}

Result<bool> InForwardComposition(const SchemaMapping& m12,
                                  const SchemaMapping& m23,
                                  const Instance& i, const Instance& k,
                                  const CompositionOptions& options) {
  return SomeNullCollapseSatisfies(
      m12, i, k, options.max_assignments,
      [&](const Instance& j) { return SatisfiesAll(j, k, m23); },
      [](size_t, size_t) {
        return Status::ResourceExhausted(
            "forward composition oracle: too many null assignments");
      });
}

Result<bool> SomeNullCollapseSatisfies(
    const SchemaMapping& m, const Instance& i1, const Instance& i2,
    size_t max_assignments,
    const std::function<bool(const Instance&)>& satisfies,
    const std::function<Status(size_t pool, size_t nulls)>& too_many) {
  QIMAP_ASSIGN_OR_RETURN(Instance universal, Chase(i1, m));

  // Fast path: the universal solution itself (its nulls are already
  // distinct fresh values outside both active domains).
  if (satisfies(universal)) return true;

  // Collect the nulls of the universal solution.
  std::vector<Value> nulls;
  for (const Value& v : universal.ActiveDomain()) {
    if (v.IsNull()) nulls.push_back(v);
  }
  if (nulls.empty()) return false;  // no other homomorphic image exists

  // Candidate pool: both active domains plus k pairwise-distinct fresh
  // nulls (labels above anything in sight).
  std::vector<Value> pool;
  {
    std::set<Value> seen;
    for (const Instance* inst : {&i1, &i2}) {
      for (const Value& v : inst->ActiveDomain()) {
        if (seen.insert(v).second) pool.push_back(v);
      }
    }
    uint32_t base = std::max(universal.MaxNullLabel(), i2.MaxNullLabel()) + 1;
    for (size_t i = 0; i < nulls.size(); ++i) {
      pool.push_back(Value::MakeNull(base + static_cast<uint32_t>(i)));
    }
  }

  // Guard the odometer size.
  double estimate = 1.0;
  for (size_t i = 0; i < nulls.size(); ++i) {
    estimate *= static_cast<double>(pool.size());
    if (estimate > static_cast<double>(max_assignments)) {
      return too_many(pool.size(), nulls.size());
    }
  }

  // Enumerate all maps nulls -> pool.
  std::vector<size_t> idx(nulls.size(), 0);
  while (true) {
    Assignment h;
    for (size_t i = 0; i < nulls.size(); ++i) {
      h.emplace(nulls[i], pool[idx[i]]);
    }
    if (satisfies(ApplyAssignmentToInstance(universal, h))) return true;
    size_t pos = 0;
    while (pos < idx.size()) {
      if (++idx[pos] < pool.size()) break;
      idx[pos] = 0;
      ++pos;
    }
    if (pos == idx.size()) break;
  }
  return false;
}

}  // namespace qimap
