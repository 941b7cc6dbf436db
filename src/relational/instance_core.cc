#include "relational/instance_core.h"

#include "relational/homomorphism.h"

namespace qimap {
namespace {

// Builds the instance minus one fact.
Instance WithoutFact(const Instance& instance, const Fact& fact) {
  Instance out(instance.schema());
  for (const Fact& f : instance.Facts()) {
    if (f == fact) continue;
    Status status = out.AddFact(f.relation, f.tuple);
    (void)status;
  }
  return out;
}

}  // namespace

Instance ComputeCore(const Instance& instance) {
  // If some proper retract exists, then some single fact can be dropped
  // with the remainder still hom-equivalent (pick any fact outside the
  // retract), so greedy single-fact elimination reaches a core.
  Instance current = instance;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Fact& fact : current.Facts()) {
      // Ground facts whose values all appear... still may be redundant
      // only through null collapsing; the generic check below covers all
      // cases. Skip the search when the instance is a single fact.
      if (current.NumFacts() <= 1) break;
      Instance candidate = WithoutFact(current, fact);
      if (ExistsInstanceHomomorphism(current, candidate)) {
        current = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return current;
}

bool IsCore(const Instance& instance) {
  for (const Fact& fact : instance.Facts()) {
    if (instance.NumFacts() <= 1) return true;
    Instance candidate = WithoutFact(instance, fact);
    if (ExistsInstanceHomomorphism(instance, candidate)) return false;
  }
  return true;
}

bool HomomorphicallyEquivalentViaCore(const Instance& a,
                                      const Instance& b) {
  Instance core_a = ComputeCore(a);
  return ExistsInstanceHomomorphism(core_a, b) &&
         ExistsInstanceHomomorphism(b, core_a);
}

}  // namespace qimap
