#ifndef QIMAP_TESTS_RANDOM_TESTING_H_
#define QIMAP_TESTS_RANDOM_TESTING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "workload/random_mappings.h"

// Shared shapes for the randomized tests. Most seeded suites sweep the
// same four mapping classes (LAV / full / GAV-style / mixed) or start
// from the same small two-relation configuration; keeping the knobs here
// means a generator change retunes every suite in one place. The journal
// renderer below is what the determinism suites diff.

namespace qimap {

/// One named mapping class for a seeded sweep.
struct CaseShape {
  const char* name;
  RandomMappingConfig config;
};

/// The paper's mapping classes as sweep shapes: LAV (single-atom lhs,
/// Proposition 3.11's setting), full (no existentials), GAV-style
/// (single-atom rhs, no existentials), and unconstrained mixed joins.
inline std::vector<CaseShape> StandardShapes() {
  std::vector<CaseShape> shapes;
  {
    RandomMappingConfig lav;  // defaults: max_lhs_atoms = 1
    lav.num_tgds = 4;
    shapes.push_back({"lav", lav});
  }
  {
    RandomMappingConfig full;
    full.max_lhs_atoms = 2;
    full.max_existential_vars = 0;
    full.num_tgds = 4;
    shapes.push_back({"full", full});
  }
  {
    RandomMappingConfig gav;
    gav.max_lhs_atoms = 3;
    gav.max_rhs_atoms = 1;
    gav.max_existential_vars = 0;
    shapes.push_back({"gav", gav});
  }
  {
    RandomMappingConfig mixed;
    mixed.max_lhs_atoms = 3;
    mixed.max_rhs_atoms = 3;
    mixed.max_existential_vars = 2;
    mixed.num_tgds = 5;
    shapes.push_back({"mixed", mixed});
  }
  return shapes;
}

/// Two source relations, two target relations, `num_tgds` dependencies —
/// the small-pair shape the bounded checkers can saturate exhaustively.
inline RandomMappingConfig SmallPairConfig(size_t num_tgds = 2) {
  RandomMappingConfig config;
  config.num_source_relations = 2;
  config.num_target_relations = 2;
  config.num_tgds = num_tgds;
  return config;
}

/// Default-sized mapping with joins in the body (`max_lhs_atoms` > 1), the
/// shape that exercises multi-atom trigger matching.
inline RandomMappingConfig JoinedBodyConfig(size_t max_lhs_atoms = 2) {
  RandomMappingConfig config;
  config.max_lhs_atoms = max_lhs_atoms;
  return config;
}

/// Renders the buffered journal with event ids rebased to 1 and the run
/// number zeroed, so two identical runs compare equal despite the
/// process-wide counters growing between them.
inline std::vector<std::string> NormalizedJournalLines() {
  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  if (events.empty()) return {};
  uint64_t base = events.front().id - 1;
  std::vector<std::string> lines;
  lines.reserve(events.size());
  for (obs::JournalEvent event : events) {
    event.id -= base;
    event.run = 0;
    for (uint64_t& parent : event.parents) parent -= base;
    for (uint64_t& null_id : event.nulls) null_id -= base;
    lines.push_back(event.ToJson());
  }
  return lines;
}

}  // namespace qimap

#endif  // QIMAP_TESTS_RANDOM_TESTING_H_
