#ifndef QIMAP_CORE_SO_COMPOSITION_H_
#define QIMAP_CORE_SO_COMPOSITION_H_

#include "base/status.h"
#include "dependency/schema_mapping.h"
#include "dependency/so_tgd.h"
#include "relational/instance.h"

namespace qimap {

/// Skolemizes a schema mapping given by s-t tgds into an SO tgd: each
/// existential variable `y` of a dependency becomes the term
/// `f_<i>_<y>(x)` over the dependency's frontier variables. The result
/// specifies the same mapping (Fagin-Kolaitis-Popa-Tan [5]).
SoMapping Skolemize(const SchemaMapping& m);

/// Composes two consecutive schema mappings given by s-t tgds into a
/// single SO tgd — the general composition algorithm of the paper's [5],
/// with no fullness restriction (contrast ComposeFullFirst). Both
/// mappings are skolemized; every way of resolving each `m23`-lhs atom
/// against a rhs atom of skolemized `m12` yields one implication whose
/// lhs collects the chosen `m12` lhs copies plus the term equalities the
/// resolution forces (e.g. the famous `e = f(e)` self-manager equality).
///
/// `m23.source` must declare the same relations in the same order as
/// `m12.target`.
Result<SoMapping> ComposeSo(const SchemaMapping& m12,
                            const SchemaMapping& m23);

/// Composes two schema mappings into one set of s-t tgds when the *first*
/// mapping is full; with a non-full first mapping the composition may need
/// second-order tgds, and this function refuses.
///
/// Reads ComposeSo's output back as s-t tgds. A full first mapping puts
/// no function term in the middle schema, so every equality of an
/// implication relates two variables and every function term Skolemizes
/// one of `m23`'s existentials. Each implication becomes one tgd: the
/// variables its equalities join are merged, each distinct function term
/// becomes one existential variable, and body atoms that the merge made
/// equal are dropped. No two of the returned tgds are equal up to a
/// renaming of variables, with body and head read as sets of atoms. The
/// result maps `m12.source` to `m23.target`.
Result<SchemaMapping> ComposeFullFirst(const SchemaMapping& m12,
                                       const SchemaMapping& m23);

/// Options for the SO chase.
struct SoChaseOptions {
  size_t max_steps = 1u << 20;
};

/// Chases a source instance with an SO tgd under the free (term-algebra)
/// interpretation of the function symbols: each distinct ground Skolem
/// term denotes a distinct fresh labeled null, labeled from one above the
/// input's largest null label. For SO tgds produced by Skolemize or
/// ComposeSo this yields a universal solution of the specified mapping
/// ([5]).
Result<Instance> SoChase(const Instance& source_inst, const SoMapping& m,
                         const SoChaseOptions& options = {});

}  // namespace qimap

#endif  // QIMAP_CORE_SO_COMPOSITION_H_
