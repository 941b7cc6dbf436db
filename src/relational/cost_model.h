#ifndef QIMAP_RELATIONAL_COST_MODEL_H_
#define QIMAP_RELATIONAL_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/instance.h"

namespace qimap {

/// Per-column statistics of one relation of an instance.
struct ColumnStats {
  uint64_t distinct = 0;  ///< distinct values in this column
  /// distinct / rows in (0, 1]; 1.0 means the column is a key, values
  /// near 0 mean an equality probe on it barely narrows the scan. 0 for
  /// an empty relation.
  double selectivity = 0.0;
};

/// Per-relation statistics.
struct RelationStats {
  std::string name;
  uint32_t arity = 0;
  uint64_t rows = 0;
  std::vector<ColumnStats> columns;  ///< one entry per column
};

/// Cardinality and selectivity summary of an instance — the
/// machine-readable handoff from the profiler to a join-order planner:
/// row counts bound scan costs, and every column's selectivity predicts
/// the payoff of the posting-list probe the matcher performs on that
/// column (the store indexes all columns).
///
/// Deterministic: relations appear in schema order, counts are exact —
/// read from the store's incrementally maintained per-column distinct
/// counts (one per `(column, value)` chain), so building the model is
/// O(relations x columns), no scanning, no sampling.
struct CostModel {
  std::vector<RelationStats> relations;
  uint64_t total_facts = 0;

  /// Exact statistics of `inst` (one pass per relation).
  static CostModel FromInstance(const Instance& inst);

  /// JSON object: {"total_facts": N, "relations": [{"name", "arity",
  /// "rows", "columns": [{"distinct", "selectivity"}]}]}.
  std::string ToJson() const;

  /// Human-readable table, one relation per line.
  std::string ToText() const;
};

}  // namespace qimap

#endif  // QIMAP_RELATIONAL_COST_MODEL_H_
