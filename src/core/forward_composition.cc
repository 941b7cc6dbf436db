#include "core/forward_composition.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/composition.h"
#include "dependency/satisfaction.h"
#include "relational/homomorphism.h"

namespace qimap {
namespace {

// Union-find over variables for the unifier.
class VariableUnifier {
 public:
  Value Find(const Value& v) {
    auto it = parent_.find(v);
    if (it == parent_.end()) return v;
    Value root = Find(it->second);
    parent_[v] = root;
    return root;
  }

  void Union(const Value& a, const Value& b) {
    Value ra = Find(a);
    Value rb = Find(b);
    if (!(ra == rb)) parent_[ra] = rb;
  }

  // Representatives: prefer a variable satisfying `preferred` within each
  // class (so heads keep their original names).
  Assignment BuildSubstitution(const std::set<Value>& all_vars,
                               const std::set<Value>& preferred) {
    // Group by root.
    std::map<Value, std::vector<Value>> classes;
    for (const Value& v : all_vars) classes[Find(v)].push_back(v);
    Assignment substitution;
    for (auto& [root, members] : classes) {
      Value representative = root;
      for (const Value& v : members) {
        if (preferred.count(v) > 0) {
          representative = v;
          break;
        }
      }
      for (const Value& v : members) {
        substitution[v] = representative;
      }
    }
    return substitution;
  }

 private:
  std::map<Value, Value> parent_;
};

// Renames every variable of the tgd with an "@<slot>" suffix so copies
// chosen for different lhs slots never collide.
Tgd RenameApart(const Tgd& tgd, size_t slot) {
  std::vector<std::pair<Value, Value>> renaming;
  std::set<Value> vars = VariableSetOf(tgd.lhs);
  for (const Value& v : VariableSetOf(tgd.rhs)) vars.insert(v);
  for (const Value& v : vars) {
    renaming.emplace_back(
        v, Value::MakeVariable(v.ToString() + "@" + std::to_string(slot)));
  }
  Tgd out;
  out.lhs = SubstituteConjunction(tgd.lhs, renaming);
  out.rhs = SubstituteConjunction(tgd.rhs, renaming);
  return out;
}

// Renames the leftover renamed-apart copy variables (they contain '@',
// which the text DSL cannot express) to the first unused u1, u2, ...
void PrettifyCopyVariables(Tgd* tgd) {
  std::set<std::string> taken;
  for (const Conjunction* side : {&tgd->lhs, &tgd->rhs}) {
    for (const Atom& atom : *side) {
      for (const Value& v : atom.args) {
        if (v.IsVariable()) taken.insert(v.ToString());
      }
    }
  }
  std::map<Value, Value> rename;
  size_t next = 1;
  auto rename_value = [&](Value& v) {
    if (!v.IsVariable()) return;
    if (v.ToString().find('@') == std::string::npos) return;
    auto it = rename.find(v);
    if (it == rename.end()) {
      std::string fresh;
      do {
        fresh = "u" + std::to_string(next++);
      } while (taken.count(fresh) > 0);
      taken.insert(fresh);
      it = rename.emplace(v, Value::MakeVariable(fresh)).first;
    }
    v = it->second;
  };
  for (Conjunction* side : {&tgd->lhs, &tgd->rhs}) {
    for (Atom& atom : *side) {
      for (Value& v : atom.args) rename_value(v);
    }
  }
}

}  // namespace

Result<bool> InForwardComposition(
    const SchemaMapping& m12, const SchemaMapping& m23, const Instance& i,
    const Instance& k, const ForwardCompositionOptions& options) {
  return SomeNullCollapseSatisfies(
      m12, i, k, options.max_assignments,
      [&](const Instance& j) { return SatisfiesAll(j, k, m23); },
      [](size_t, size_t) {
        return Status::ResourceExhausted(
            "forward composition oracle: too many null assignments");
      });
}

Result<SchemaMapping> ComposeFullFirst(const SchemaMapping& m12,
                                       const SchemaMapping& m23) {
  if (!m12.IsFull()) {
    return Status::FailedPrecondition(
        "ComposeFullFirst requires the first mapping to be full "
        "(arbitrary-first compositions may need second-order tgds)");
  }
  SchemaMapping composed;
  composed.source = m12.source;
  composed.target = m23.target;

  for (const Tgd& sigma23 : m23.tgds) {
    const size_t slots = sigma23.lhs.size();
    // Candidate (tgd, rhs-atom) resolutions per lhs slot.
    std::vector<std::vector<std::pair<size_t, size_t>>> candidates(slots);
    for (size_t s = 0; s < slots; ++s) {
      for (size_t t = 0; t < m12.tgds.size(); ++t) {
        for (size_t r = 0; r < m12.tgds[t].rhs.size(); ++r) {
          if (m12.tgds[t].rhs[r].relation == sigma23.lhs[s].relation) {
            candidates[s].emplace_back(t, r);
          }
        }
      }
      if (candidates[s].empty()) {
        // This sigma23 can never fire on a chase-minimal middle
        // instance; it contributes no composed dependency.
        candidates.clear();
        break;
      }
    }
    if (candidates.empty()) continue;

    // Odometer over the per-slot choices.
    std::vector<size_t> choice(slots, 0);
    while (true) {
      // Build renamed-apart copies and unify.
      VariableUnifier unifier;
      std::vector<Tgd> copies(slots);
      bool consistent = true;
      std::set<Value> all_vars;
      for (const Value& v : VariableSetOf(sigma23.lhs)) all_vars.insert(v);
      for (const Value& v : VariableSetOf(sigma23.rhs)) all_vars.insert(v);
      for (size_t s = 0; s < slots && consistent; ++s) {
        auto [t, r] = candidates[s][choice[s]];
        copies[s] = RenameApart(m12.tgds[t], s);
        for (const Value& v : VariableSetOf(copies[s].lhs)) {
          all_vars.insert(v);
        }
        const Atom& produced = copies[s].rhs[r];
        const Atom& consumed = sigma23.lhs[s];
        for (size_t p = 0; p < consumed.args.size(); ++p) {
          // Both sides are variables (dependencies carry no constants).
          unifier.Union(consumed.args[p], produced.args[p]);
        }
      }
      if (consistent) {
        std::set<Value> preferred;
        for (const Value& v : VariablesOf(sigma23.rhs)) preferred.insert(v);
        for (const Value& v : VariablesOf(sigma23.lhs)) preferred.insert(v);
        Assignment substitution =
            unifier.BuildSubstitution(all_vars, preferred);
        Tgd tgd;
        for (const Tgd& copy : copies) {
          Conjunction lhs =
              ApplyAssignmentToConjunction(copy.lhs, substitution);
          for (Atom& atom : lhs) {
            if (std::find(tgd.lhs.begin(), tgd.lhs.end(), atom) ==
                tgd.lhs.end()) {
              tgd.lhs.push_back(std::move(atom));
            }
          }
        }
        tgd.rhs = ApplyAssignmentToConjunction(sigma23.rhs, substitution);
        PrettifyCopyVariables(&tgd);
        if (std::find(composed.tgds.begin(), composed.tgds.end(), tgd) ==
            composed.tgds.end()) {
          composed.tgds.push_back(std::move(tgd));
        }
      }
      // Advance the odometer.
      size_t pos = 0;
      while (pos < slots) {
        if (++choice[pos] < candidates[pos].size()) break;
        choice[pos] = 0;
        ++pos;
      }
      if (pos == slots) break;
    }
  }
  return composed;
}

}  // namespace qimap
