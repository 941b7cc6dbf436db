#ifndef QIMAP_TESTS_RANDOM_TESTING_H_
#define QIMAP_TESTS_RANDOM_TESTING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/journal.h"
#include "workload/random_mappings.h"

// Shared shapes for the randomized tests. Most seeded suites sweep the
// same four mapping classes (LAV / full / GAV-style / mixed) or start
// from the same small two-relation configuration; keeping the knobs here
// means a generator change retunes every suite in one place. The journal
// renderer below is what the determinism suites diff, and the renamed-
// duplicate check is what the composition suites assert.

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

/// Sends `from[next..]` to unused atoms of `to` on the same side (the
/// `int` tags body 0 / head 1), extending the two directions of one
/// bijective variable renaming.
inline bool ExtendRenaming(const std::vector<std::pair<int, Atom>>& from,
                           const std::vector<std::pair<int, Atom>>& to,
                           size_t next, std::vector<bool>* used,
                           const std::map<Value, Value>& forward,
                           const std::map<Value, Value>& backward) {
  if (next == from.size()) return true;
  const auto& [side, atom] = from[next];
  for (size_t j = 0; j < to.size(); ++j) {
    if ((*used)[j] || to[j].first != side ||
        to[j].second.relation != atom.relation) {
      continue;
    }
    std::map<Value, Value> f = forward;
    std::map<Value, Value> b = backward;
    bool consistent = true;
    for (size_t p = 0; consistent && p < atom.args.size(); ++p) {
      const Value& x = atom.args[p];
      const Value& y = to[j].second.args[p];
      consistent = f.emplace(x, y).first->second == y &&
                   b.emplace(y, x).first->second == x;
    }
    if (!consistent) continue;
    (*used)[j] = true;
    if (ExtendRenaming(from, to, next + 1, used, f, b)) return true;
    (*used)[j] = false;
  }
  return false;
}

/// True iff one bijective renaming of variables maps the body of `a` onto
/// the body of `b` and the head of `a` onto the head of `b`, each read as
/// a set of atoms.
inline bool EqualUpToRenaming(const Tgd& a, const Tgd& b) {
  auto tagged = [](const Tgd& tgd) {
    std::vector<std::pair<int, Atom>> atoms;
    for (int side = 0; side < 2; ++side) {
      for (const Atom& atom : side == 0 ? tgd.lhs : tgd.rhs) {
        std::pair<int, Atom> entry{side, atom};
        if (std::find(atoms.begin(), atoms.end(), entry) == atoms.end()) {
          atoms.push_back(std::move(entry));
        }
      }
    }
    return atoms;
  };
  std::vector<std::pair<int, Atom>> from = tagged(a);
  std::vector<std::pair<int, Atom>> to = tagged(b);
  if (from.size() != to.size()) return false;
  std::vector<bool> used(to.size(), false);
  return ExtendRenaming(from, to, 0, &used, {}, {});
}

/// True iff two of `m`'s tgds are equal up to a renaming of variables.
inline bool HasRenamedDuplicate(const SchemaMapping& m) {
  for (size_t i = 0; i < m.tgds.size(); ++i) {
    for (size_t j = i + 1; j < m.tgds.size(); ++j) {
      if (EqualUpToRenaming(m.tgds[i], m.tgds[j])) return true;
    }
  }
  return false;
}

}  // namespace qimap

#endif  // QIMAP_TESTS_RANDOM_TESTING_H_
