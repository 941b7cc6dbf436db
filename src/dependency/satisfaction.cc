#include "dependency/satisfaction.h"

#include "relational/homomorphism.h"

namespace qimap {

bool Satisfies(const Instance& source_inst, const Instance& target_inst,
               const Tgd& tgd) {
  HomSearchOptions lhs_options;  // variables movable, no side conditions
  bool satisfied = true;
  ForEachHomomorphism(
      tgd.lhs, source_inst, {}, lhs_options,
      [&](const Assignment& h) {
        HomSearchOptions rhs_options;
        if (!HasHomomorphism(tgd.rhs, target_inst, h, rhs_options)) {
          satisfied = false;
          return false;  // counterexample found; stop
        }
        return true;
      });
  return satisfied;
}

bool SatisfiesAll(const Instance& source_inst, const Instance& target_inst,
                  const SchemaMapping& m) {
  for (const Tgd& tgd : m.tgds) {
    if (!Satisfies(source_inst, target_inst, tgd)) return false;
  }
  return true;
}

bool SatisfiesDisjunctive(const Instance& from_inst, const Instance& to_inst,
                          const DisjunctiveTgd& dep) {
  HomSearchOptions lhs_options;
  lhs_options.must_be_constant = dep.constant_vars;
  lhs_options.inequalities = dep.inequalities;
  bool satisfied = true;
  ForEachHomomorphism(
      dep.lhs, from_inst, {}, lhs_options,
      [&](const Assignment& h) {
        for (const Conjunction& disjunct : dep.disjuncts) {
          HomSearchOptions rhs_options;
          if (HasHomomorphism(disjunct, to_inst, h, rhs_options)) {
            return true;  // this lhs match is satisfied; keep scanning
          }
        }
        satisfied = false;
        return false;
      });
  return satisfied;
}

bool SatisfiesAllReverse(const Instance& from_inst, const Instance& to_inst,
                         const ReverseMapping& m) {
  for (const DisjunctiveTgd& dep : m.deps) {
    if (!SatisfiesDisjunctive(from_inst, to_inst, dep)) return false;
  }
  return true;
}

}  // namespace qimap
