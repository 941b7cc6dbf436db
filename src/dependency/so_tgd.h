#ifndef QIMAP_DEPENDENCY_SO_TGD_H_
#define QIMAP_DEPENDENCY_SO_TGD_H_

#include <string>
#include <utility>
#include <vector>

#include "base/value.h"
#include "relational/atom.h"
#include "relational/schema.h"

namespace qimap {

/// A first-order term over variables and (Skolem) function symbols:
/// either a variable or `f(t1, ..., tn)`. Terms nest (composition chains
/// produce `g(f(x))`). Value-type.
///
/// Terms are the vocabulary of second-order tgds
/// (Fagin-Kolaitis-Popa-Tan, "Composing Schema Mappings: Second-Order
/// Dependencies to the Rescue" — the paper's [5]), the language needed to
/// compose arbitrary s-t tgd mappings.
struct Term {
  /// The variable, when `function` is empty.
  Value variable;
  /// The function symbol; empty for plain variables.
  std::string function;
  std::vector<Term> args;

  static Term Var(Value v) { return Term{v, "", {}}; }
  static Term Func(std::string name, std::vector<Term> arguments) {
    return Term{Value(), std::move(name), std::move(arguments)};
  }

  bool IsVariable() const { return function.empty(); }

  /// Renders `x` or `f(x,g(y))`.
  std::string ToString() const;

  friend bool operator==(const Term& a, const Term& b) = default;
};

/// An atom whose arguments are terms.
struct TermAtom {
  RelationId relation = 0;
  std::vector<Term> args;

  friend bool operator==(const TermAtom& a, const TermAtom& b) = default;
};

std::string TermAtomToString(const TermAtom& atom, const Schema& schema);

/// One implication of an SO tgd:
///
///   forall x ( lhs(x) & t1 = t1' & ... -> rhs )
///
/// where `lhs` is a conjunction of plain relational atoms over the source
/// schema, the equalities relate terms over the lhs variables, and the
/// rhs atoms are over the target schema with term arguments. The function
/// symbols are existentially quantified once, in front of the whole set
/// of implications (the enclosing SoMapping).
struct SoImplication {
  Conjunction lhs;
  std::vector<std::pair<Term, Term>> equalities;
  std::vector<TermAtom> rhs;

  friend bool operator==(const SoImplication& a,
                         const SoImplication& b) = default;
};

/// A schema mapping specified by one SO tgd
/// `exists f1...fk (forall... ∧ forall...)`: the closure of s-t tgds
/// under composition.
struct SoMapping {
  SchemaPtr source;
  SchemaPtr target;
  std::vector<SoImplication> implications;

  /// Multi-line rendering of the implications.
  std::string ToString() const;
};

std::string SoImplicationToString(const SoImplication& implication,
                                  const Schema& source,
                                  const Schema& target);

}  // namespace qimap

#endif  // QIMAP_DEPENDENCY_SO_TGD_H_
