#include "core/implication.h"

#include <algorithm>
#include <set>
#include <string>

#include "chase/chase.h"
#include "core/sigma_star.h"
#include "relational/homomorphism.h"

namespace qimap {
namespace {

// One instantiation case for the lhs variables of a disjunctive tgd: a
// block id per variable plus a constant/null kind per block.
struct Shape {
  std::vector<size_t> block_of;    // per lhs variable
  std::vector<bool> block_is_constant;
};

// Enumerates the shapes consistent with the dependency's guards.
Result<std::vector<Shape>> ConsistentShapes(const DisjunctiveTgd& dep,
                                            const std::vector<Value>& vars,
                                            size_t max_shapes) {
  std::vector<Shape> shapes;
  auto index_of = [&vars](const Value& v) {
    return static_cast<size_t>(
        std::find(vars.begin(), vars.end(), v) - vars.begin());
  };
  for (const std::vector<size_t>& partition : SetPartitions(vars.size())) {
    // Inequality guards force distinct blocks.
    bool ok = true;
    for (const auto& [a, b] : dep.inequalities) {
      if (partition[index_of(a)] == partition[index_of(b)]) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    size_t num_blocks =
        vars.empty()
            ? 0
            : *std::max_element(partition.begin(), partition.end()) + 1;
    // Blocks containing a Constant-guarded variable must be constants.
    std::vector<bool> forced_constant(num_blocks, false);
    for (const Value& v : dep.constant_vars) {
      forced_constant[partition[index_of(v)]] = true;
    }
    // Enumerate the free blocks' kinds.
    std::vector<size_t> free_blocks;
    for (size_t b = 0; b < num_blocks; ++b) {
      if (!forced_constant[b]) free_blocks.push_back(b);
    }
    for (uint64_t mask = 0; mask < (1ull << free_blocks.size()); ++mask) {
      Shape shape;
      shape.block_of = partition;
      shape.block_is_constant = forced_constant;
      for (size_t i = 0; i < free_blocks.size(); ++i) {
        shape.block_is_constant[free_blocks[i]] = (mask >> i) & 1;
      }
      shapes.push_back(std::move(shape));
      if (shapes.size() > max_shapes) {
        return Status::ResourceExhausted(
            "implication shape analysis exceeded max_shapes");
      }
    }
  }
  return shapes;
}

}  // namespace

Result<bool> ImpliesTgd(const SchemaMapping& m, const Tgd& sigma) {
  Instance canonical = CanonicalInstance(sigma.lhs, m.source);
  QIMAP_ASSIGN_OR_RETURN(Instance chased, Chase(canonical, m));
  Assignment partial;
  for (const Value& v : VariablesOf(sigma.lhs)) partial.emplace(v, v);
  HomSearchOptions options;
  return HasHomomorphism(sigma.rhs, chased, partial, options);
}

Result<bool> EquivalentTgdSets(const SchemaMapping& a,
                               const SchemaMapping& b) {
  for (const Tgd& sigma : b.tgds) {
    QIMAP_ASSIGN_OR_RETURN(bool implied, ImpliesTgd(a, sigma));
    if (!implied) return false;
  }
  for (const Tgd& sigma : a.tgds) {
    QIMAP_ASSIGN_OR_RETURN(bool implied, ImpliesTgd(b, sigma));
    if (!implied) return false;
  }
  return true;
}

Result<bool> ImpliesDisjunctive(const ReverseMapping& premises,
                                const DisjunctiveTgd& conclusion,
                                const ImplicationOptions& options) {
  std::vector<Value> vars = VariablesOf(conclusion.lhs);
  QIMAP_ASSIGN_OR_RETURN(
      std::vector<Shape> shapes,
      ConsistentShapes(conclusion, vars, options.max_shapes));

  for (const Shape& shape : shapes) {
    // Instantiate the lhs: fresh constant "#ci" or fresh null per block.
    Assignment instantiation;
    for (size_t i = 0; i < vars.size(); ++i) {
      size_t block = shape.block_of[i];
      Value value =
          shape.block_is_constant[block]
              ? Value::MakeConstant("#c" + std::to_string(block + 1))
              : Value::MakeNull(static_cast<uint32_t>(1000 + block));
      instantiation.emplace(vars[i], value);
    }
    Conjunction instantiated =
        ApplyAssignmentToConjunction(conclusion.lhs, instantiation);
    Instance j0 = CanonicalInstance(instantiated, premises.from);

    // Close the source side under the premises; the conclusion must hold
    // in every leaf.
    QIMAP_ASSIGN_OR_RETURN(std::vector<Instance> leaves,
                           DisjunctiveChase(j0, premises, options.chase));
    for (const Instance& leaf : leaves) {
      bool satisfied = false;
      for (const Conjunction& disjunct : conclusion.disjuncts) {
        Conjunction mapped =
            ApplyAssignmentToConjunction(disjunct, instantiation);
        // Remaining variables are the disjunct's existentials; the shape
        // values (constants AND nulls) must stay fixed.
        HomSearchOptions hom_options;
        hom_options.map_nulls = false;
        if (HasHomomorphism(mapped, leaf, {}, hom_options)) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) return false;
    }
  }
  return true;
}

Result<bool> ImpliesReverseMapping(const ReverseMapping& premises,
                                   const ReverseMapping& conclusions,
                                   const ImplicationOptions& options) {
  for (const DisjunctiveTgd& dep : conclusions.deps) {
    QIMAP_ASSIGN_OR_RETURN(bool implied,
                           ImpliesDisjunctive(premises, dep, options));
    if (!implied) return false;
  }
  return true;
}

Result<bool> EquivalentReverseMappings(const ReverseMapping& a,
                                       const ReverseMapping& b,
                                       const ImplicationOptions& options) {
  QIMAP_ASSIGN_OR_RETURN(bool forward, ImpliesReverseMapping(a, b, options));
  if (!forward) return false;
  return ImpliesReverseMapping(b, a, options);
}

}  // namespace qimap
