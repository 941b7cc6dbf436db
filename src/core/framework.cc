#include "core/framework.h"

#include <map>
#include <utility>

#include "chase/chase.h"
#include "core/solution_space.h"
#include "dependency/satisfaction.h"
#include "relational/homomorphism.h"
#include "relational/instance_enum.h"

namespace qimap {

const char* EquivKindName(EquivKind kind) {
  switch (kind) {
    case EquivKind::kEquality:
      return "=";
    case EquivKind::kSimM:
      return "~M";
  }
  return "?";
}

FrameworkChecker::FrameworkChecker(const SchemaMapping& m,
                                   BoundedSpace space)
    : m_(m), space_(std::move(space)) {
  if (space_.witness_max_facts == 0) {
    space_.witness_max_facts = 2 * space_.max_facts;
  }
  lav_ = m_.IsLav();
}

Status FrameworkChecker::Prepare() {
  if (prepared_) return Status::OK();

  // For LAV mappings witnesses come from class saturation, so only the
  // main space is materialized; non-LAV mappings enumerate the larger
  // witness space.
  size_t enumerate_up_to =
      lav_ ? space_.max_facts
           : std::max(space_.max_facts, space_.witness_max_facts);
  EnumerationSpace enum_space{m_.source, space_.domain, enumerate_up_to};
  ForEachInstance(enum_space, [&](const Instance& inst) {
    instances_.push_back(inst);
    return true;
  });
  domain_facts_ = AllFactsOver(*m_.source, space_.domain);

  for (size_t i = 0; i < instances_.size(); ++i) {
    if (instances_[i].NumFacts() <= space_.max_facts) {
      main_indices_.push_back(i);
    }
  }

  // Chase every instance once; later passes (class saturation, the
  // subset-property walk) read Sol(M, I) from chases_ instead of
  // re-chasing.
  chases_.reserve(instances_.size());
  for (const Instance& inst : instances_) {
    Result<Instance> chased = Chase(inst, m_);
    if (!chased.ok()) return chased.status();
    chases_.push_back(std::move(chased).value());
  }

  // ~M classes. Sol(M, I) is the set of homomorphic supersets of
  // chase(I), so I ~M I' iff the two chases are homomorphically
  // equivalent. Instances whose chases render identically are equivalent
  // outright, so bucket by the rendered chase first and run the quadratic
  // homomorphic-equivalence union-find over bucket representatives only
  // (for full mappings the chases are ground and every class is a single
  // bucket, making this linear).
  std::vector<size_t> parent(instances_.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::map<std::string, size_t> bucket_representative;
  std::vector<size_t> representatives;
  for (size_t i = 0; i < instances_.size(); ++i) {
    auto [it, inserted] =
        bucket_representative.emplace(chases_[i].ToString(), i);
    if (inserted) {
      representatives.push_back(i);
    } else {
      parent[i] = it->second;
    }
  }
  for (size_t ri = 0; ri < representatives.size(); ++ri) {
    for (size_t rj = ri + 1; rj < representatives.size(); ++rj) {
      size_t i = representatives[ri];
      size_t j = representatives[rj];
      if (find(i) == find(j)) continue;
      if (HomomorphicallyEquivalent(chases_[i], chases_[j])) {
        parent[find(j)] = find(i);
      }
    }
  }
  std::map<size_t, size_t> root_to_class;
  class_id_.resize(instances_.size());
  for (size_t i = 0; i < instances_.size(); ++i) {
    size_t root = find(i);
    auto [it, inserted] =
        root_to_class.emplace(root, root_to_class.size());
    class_id_[i] = it->second;
    if (inserted) class_members_.emplace_back();
    class_members_[class_id_[i]].push_back(i);
  }
  num_classes_ = class_members_.size();
  saturated_.resize(num_classes_);

  prepared_ = true;
  return Status::OK();
}

Result<Instance> FrameworkChecker::SaturateClass(const Instance& inst) {
  QIMAP_RETURN_IF_ERROR(Prepare());
  QIMAP_ASSIGN_OR_RETURN(Instance chased, Chase(inst, m_));
  return SaturateChased(inst, chased);
}

Result<Instance> FrameworkChecker::SaturateChased(const Instance& inst,
                                                  const Instance& chased) {
  // Umax = { f over the domain : Sol(inst) ⊆ Sol({f}) }. For LAV
  // mappings every constraint involves a single fact, so
  // Sol(A) = ⋂_{f ∈ A} Sol({f}); hence Sol(Umax) = Sol(inst), every
  // equivalent domain instance is a subset of Umax, and Umax is the class
  // maximum.
  Instance umax(m_.source);
  for (const Fact& fact : domain_facts_) {
    Instance single(m_.source);
    QIMAP_RETURN_IF_ERROR(single.AddFact(fact.relation, fact.tuple));
    if (IsSolution(m_, single, chased)) {
      QIMAP_RETURN_IF_ERROR(umax.AddFact(fact.relation, fact.tuple));
    }
  }
  umax.UnionWith(inst);  // facts outside the domain are preserved
  return umax;
}

Result<const Instance*> FrameworkChecker::SaturatedOf(size_t index) {
  size_t cls = class_id_[index];
  if (!saturated_[cls].has_value()) {
    QIMAP_ASSIGN_OR_RETURN(
        Instance umax, SaturateChased(instances_[index], chases_[index]));
    saturated_[cls] = std::move(umax);
  }
  return &*saturated_[cls];
}

Result<bool> FrameworkChecker::Statement1(size_t a, size_t b,
                                          EquivKind eq1, EquivKind eq2) {
  // Resolve the second component: under equality the only candidate is
  // I2; for LAV mappings WLOG the class maximum Umax (any witness I2' is
  // a subset of it and it is itself equivalent to I2).
  if (eq2 == EquivKind::kEquality || lav_) {
    const Instance* i2max = &instances_[b];
    if (eq2 == EquivKind::kSimM) {
      QIMAP_ASSIGN_OR_RETURN(i2max, SaturatedOf(b));
    }
    if (eq1 == EquivKind::kEquality) {
      return instances_[a].IsSubsetOf(*i2max);
    }
    // Fast path: I1 itself below the maximum.
    if (instances_[a].IsSubsetOf(*i2max)) return true;
    if (lav_) {
      // Any witness I1' consists of facts f with Sol(I1) ⊆ Sol({f});
      // for LAV the maximal candidate S* is itself the union of all
      // witnesses, so one exists iff Sol(S*) = Sol(I1).
      Instance star(m_.source);
      for (const Fact& fact : i2max->Facts()) {
        Instance single(m_.source);
        QIMAP_RETURN_IF_ERROR(single.AddFact(fact.relation, fact.tuple));
        if (IsSolution(m_, single, chases_[a])) {
          QIMAP_RETURN_IF_ERROR(star.AddFact(fact.relation, fact.tuple));
        }
      }
      return SimEquivalent(m_, star, instances_[a]);
    }
    // Non-LAV with eq2 == equality: fall through to the bounded scan of
    // I1's class below, against the fixed I2.
  }
  // Bounded scan over enumerated class members.
  std::vector<size_t> singleton_a = {a};
  std::vector<size_t> singleton_b = {b};
  const std::vector<size_t>& left = eq1 == EquivKind::kEquality
                                        ? singleton_a
                                        : class_members_[class_id_[a]];
  const std::vector<size_t>& right = eq2 == EquivKind::kEquality
                                         ? singleton_b
                                         : class_members_[class_id_[b]];
  for (size_t i1p : left) {
    for (size_t i2p : right) {
      if (instances_[i1p].IsSubsetOf(instances_[i2p])) return true;
    }
  }
  return false;
}

Result<bool> FrameworkChecker::Statement2(const ReverseMapping& m_prime,
                                          size_t a, size_t b,
                                          EquivKind eq1, EquivKind eq2,
                                          BoundedCheckReport* report) {
  (void)eq1;  // membership is ~M-invariant in the first component
  if (eq2 == EquivKind::kEquality) {
    ++report->composition_calls;
    return InComposition(m_, m_prime, instances_[a], instances_[b]);
  }
  if (lav_) {
    // Membership is monotone in the second component, so the class
    // maximum decides it.
    QIMAP_ASSIGN_OR_RETURN(const Instance* umax, SaturatedOf(b));
    ++report->composition_calls;
    return InComposition(m_, m_prime, instances_[a], *umax);
  }
  for (size_t i2pp : class_members_[class_id_[b]]) {
    ++report->composition_calls;
    QIMAP_ASSIGN_OR_RETURN(
        bool member,
        InComposition(m_, m_prime, instances_[a], instances_[i2pp]));
    if (member) return true;
  }
  return false;
}

Result<BoundedCheckReport> FrameworkChecker::CheckSubsetProperty(
    EquivKind eq1, EquivKind eq2) {
  QIMAP_RETURN_IF_ERROR(Prepare());
  BoundedCheckReport report;
  report.space_size = instances_.size();
  report.sim_classes = num_classes_;
  // Statement 1 only depends on the ~M classes of the components the
  // relaxed relation applies to; memoize accordingly.
  std::map<std::pair<size_t, size_t>, bool> memo;
  for (size_t a : main_indices_) {
    for (size_t b : main_indices_) {
      ++report.pairs_checked;
      // Sol(M, I2) ⊆ Sol(M, I1) iff chase(I2) is a solution for I1.
      if (!IsSolution(m_, instances_[a], chases_[b])) continue;
      auto key = std::make_pair(
          eq1 == EquivKind::kSimM ? class_id_[a] : a + instances_.size(),
          eq2 == EquivKind::kSimM ? class_id_[b] : b + instances_.size());
      bool witnessed;
      auto it = memo.find(key);
      if (it != memo.end()) {
        witnessed = it->second;
      } else {
        QIMAP_ASSIGN_OR_RETURN(witnessed, Statement1(a, b, eq1, eq2));
        memo.emplace(key, witnessed);
      }
      if (!witnessed) {
        report.holds = false;
        report.counterexample = Counterexample{
            instances_[a], instances_[b],
            std::string("Sol(I2) ⊆ Sol(I1) but no (I1',I2') with ") +
                "I1' " + EquivKindName(eq1) + " I1, I2' " +
                EquivKindName(eq2) + " I2, I1' ⊆ I2' found"};
        return report;
      }
    }
  }
  return report;
}

Result<BoundedCheckReport> FrameworkChecker::CheckGeneralizedInverse(
    const ReverseMapping& m_prime, EquivKind eq1, EquivKind eq2) {
  QIMAP_RETURN_IF_ERROR(Prepare());
  BoundedCheckReport report;
  report.space_size = instances_.size();
  report.sim_classes = num_classes_;

  std::map<std::pair<size_t, size_t>, bool> memo1;
  std::map<std::pair<size_t, size_t>, bool> memo2;
  for (size_t a : main_indices_) {
    for (size_t b : main_indices_) {
      ++report.pairs_checked;
      auto key = std::make_pair(
          eq1 == EquivKind::kSimM ? class_id_[a] : a + instances_.size(),
          eq2 == EquivKind::kSimM ? class_id_[b] : b + instances_.size());
      bool s1;
      auto it1 = memo1.find(key);
      if (it1 != memo1.end()) {
        s1 = it1->second;
      } else {
        QIMAP_ASSIGN_OR_RETURN(s1, Statement1(a, b, eq1, eq2));
        memo1.emplace(key, s1);
      }
      // Statement 2 is ~M-invariant in the first component regardless of
      // eq1, so its memo key may always use the class there.
      auto key2 = std::make_pair(
          class_id_[a],
          eq2 == EquivKind::kSimM ? class_id_[b] : b + instances_.size());
      bool s2;
      auto it2 = memo2.find(key2);
      if (it2 != memo2.end()) {
        s2 = it2->second;
      } else {
        QIMAP_ASSIGN_OR_RETURN(
            s2, Statement2(m_prime, a, b, eq1, eq2, &report));
        memo2.emplace(key2, s2);
      }
      if (s1 != s2) {
        report.holds = false;
        report.counterexample = Counterexample{
            instances_[a], instances_[b],
            s1 ? "I1 ⊆ I2 modulo (~1,~2) but the pair is not in "
                 "Inst(M∘M') modulo (~1,~2)"
               : "the pair is in Inst(M∘M') modulo (~1,~2) but I1 ⊆ I2 "
                 "fails modulo (~1,~2)"};
        return report;
      }
    }
  }
  return report;
}

Result<BoundedCheckReport> FrameworkChecker::CheckUniqueSolutions() {
  QIMAP_RETURN_IF_ERROR(Prepare());
  BoundedCheckReport report;
  report.space_size = instances_.size();
  report.sim_classes = num_classes_;
  for (size_t ai = 0; ai < main_indices_.size(); ++ai) {
    for (size_t bi = ai + 1; bi < main_indices_.size(); ++bi) {
      size_t a = main_indices_[ai];
      size_t b = main_indices_[bi];
      ++report.pairs_checked;
      if (class_id_[a] == class_id_[b] &&
          !(instances_[a] == instances_[b])) {
        report.holds = false;
        report.counterexample = Counterexample{
            instances_[a], instances_[b],
            "distinct ground instances with the same space of solutions"};
        return report;
      }
    }
  }
  return report;
}

}  // namespace qimap
