#include "core/so_composition.h"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <algorithm>

#include "base/strings.h"
#include "core/mingen.h"
#include "relational/homomorphism.h"

namespace qimap {
namespace {

// Substitutes variables inside a term (recursively) by terms.
Term SubstituteTerm(const Term& term, const std::map<Value, Term>& theta) {
  if (term.IsVariable()) {
    auto it = theta.find(term.variable);
    return it != theta.end() ? it->second : term;
  }
  Term out = term;
  for (Term& arg : out.args) arg = SubstituteTerm(arg, theta);
  return out;
}

// Renames every variable occurring in the term with an "@<slot>" suffix.
Term RenameTermApart(const Term& term, size_t slot) {
  if (term.IsVariable()) {
    return Term::Var(Value::MakeVariable(term.variable.ToString() + "@" +
                                         std::to_string(slot)));
  }
  Term out = term;
  for (Term& arg : out.args) arg = RenameTermApart(arg, slot);
  return out;
}

// Renames an implication's variables apart for use as the `slot`-th copy.
SoImplication RenameImplicationApart(const SoImplication& implication,
                                     size_t slot) {
  SoImplication out;
  for (const Atom& atom : implication.lhs) {
    Atom renamed = atom;
    for (Value& v : renamed.args) {
      v = Value::MakeVariable(v.ToString() + "@" + std::to_string(slot));
    }
    out.lhs.push_back(std::move(renamed));
  }
  for (const auto& [a, b] : implication.equalities) {
    out.equalities.emplace_back(RenameTermApart(a, slot),
                                RenameTermApart(b, slot));
  }
  for (const TermAtom& atom : implication.rhs) {
    TermAtom renamed = atom;
    for (Term& t : renamed.args) t = RenameTermApart(t, slot);
    out.rhs.push_back(std::move(renamed));
  }
  return out;
}

// Rewrites the renamed-apart copy variables ("e@0") and the read-back's
// existential variables to readable unique names: the base name when
// free, otherwise base name + counter.
void PrettifySoImplication(SoImplication* implication) {
  std::set<std::string> taken;
  std::map<Value, Value> rename;
  auto target_name = [&taken](const std::string& name) {
    std::string base = name.substr(0, name.find('@'));
    std::string candidate = base;
    size_t counter = 2;
    while (taken.count(candidate) > 0) {
      candidate = base + std::to_string(counter++);
    }
    taken.insert(candidate);
    return candidate;
  };
  auto rename_value = [&](Value& v) {
    if (!v.IsVariable()) return;
    std::string name = v.ToString();
    if (name.find('@') == std::string::npos) {
      taken.insert(name);
      return;
    }
    auto it = rename.find(v);
    if (it == rename.end()) {
      it = rename.emplace(v, Value::MakeVariable(target_name(name))).first;
    }
    v = it->second;
  };
  std::function<void(Term*)> rename_term = [&](Term* term) {
    if (term->IsVariable()) {
      rename_value(term->variable);
      return;
    }
    for (Term& arg : term->args) rename_term(&arg);
  };
  for (Atom& atom : implication->lhs) {
    for (Value& v : atom.args) rename_value(v);
  }
  for (auto& [a, b] : implication->equalities) {
    rename_term(&a);
    rename_term(&b);
  }
  for (TermAtom& atom : implication->rhs) {
    for (Term& t : atom.args) rename_term(&t);
  }
}

SoMapping SkolemizeWithPrefix(const SchemaMapping& m,
                              const std::string& prefix) {
  SoMapping so;
  so.source = m.source;
  so.target = m.target;
  for (size_t i = 0; i < m.tgds.size(); ++i) {
    const Tgd& tgd = m.tgds[i];
    std::vector<Value> frontier = tgd.FrontierVariables();
    std::vector<Term> frontier_terms;
    frontier_terms.reserve(frontier.size());
    for (const Value& v : frontier) frontier_terms.push_back(Term::Var(v));
    std::map<Value, Term> theta;
    for (const Value& y : tgd.ExistentialVariables()) {
      theta.emplace(y, Term::Func(prefix + std::to_string(i + 1) + "_" +
                                      y.ToString(),
                                  frontier_terms));
    }
    SoImplication implication;
    implication.lhs = tgd.lhs;
    for (const Atom& atom : tgd.rhs) {
      TermAtom term_atom;
      term_atom.relation = atom.relation;
      for (const Value& v : atom.args) {
        term_atom.args.push_back(SubstituteTerm(Term::Var(v), theta));
      }
      implication.rhs.push_back(std::move(term_atom));
    }
    so.implications.push_back(std::move(implication));
  }
  return so;
}

// Reads one implication of ComposeSo's output for a full first mapping
// back as an s-t tgd (see ComposeFullFirst).
Tgd ReadBackTgd(SoImplication implication) {
  // Merge the variables the equalities join: theta sends each merged
  // variable to its class's representative, the earliest-joined member.
  std::map<Value, Term> theta;
  for (const auto& [a, b] : implication.equalities) {
    Term ra = SubstituteTerm(a, theta);
    Term rb = SubstituteTerm(b, theta);
    if (ra == rb) continue;
    for (auto& [v, t] : theta) {
      if (t == rb) t = ra;
    }
    theta.emplace(rb.variable, ra);
  }
  implication.equalities.clear();
  Conjunction lhs;
  for (Atom& atom : implication.lhs) {
    for (Value& v : atom.args) v = SubstituteTerm(Term::Var(v), theta).variable;
    if (std::find(lhs.begin(), lhs.end(), atom) == lhs.end()) {
      lhs.push_back(std::move(atom));
    }
  }
  implication.lhs = std::move(lhs);
  // Each distinct function term, keyed by its rendering, becomes one
  // existential variable named after the m23 existential it Skolemizes:
  // "g2_z(x)" reads back as "z@<n>", which the prettifier renames apart
  // from the body's variables.
  std::map<std::string, Term> existentials;
  for (TermAtom& atom : implication.rhs) {
    for (Term& term : atom.args) {
      term = SubstituteTerm(term, theta);
      if (term.IsVariable()) continue;
      auto [it, fresh] = existentials.try_emplace(term.ToString());
      if (fresh) {
        it->second = Term::Var(Value::MakeVariable(
            term.function.substr(term.function.find('_') + 1) + "@" +
            std::to_string(existentials.size())));
      }
      term = it->second;
    }
  }
  PrettifySoImplication(&implication);
  Tgd tgd{std::move(implication.lhs), {}};
  for (const TermAtom& atom : implication.rhs) {
    Atom plain{atom.relation, {}};
    for (const Term& term : atom.args) plain.args.push_back(term.variable);
    tgd.rhs.push_back(std::move(plain));
  }
  return tgd;
}

// The tgd's body and head as one set of atoms, the head's relations
// numbered after the body schema's `source_size` relations.
Conjunction AtomSetOf(const Tgd& tgd, RelationId source_size) {
  Conjunction atoms = tgd.lhs;
  for (Atom atom : tgd.rhs) {
    atom.relation += source_size;
    if (std::find(atoms.begin(), atoms.end(), atom) == atoms.end()) {
      atoms.push_back(std::move(atom));
    }
  }
  return atoms;
}

}  // namespace

SoMapping Skolemize(const SchemaMapping& m) {
  return SkolemizeWithPrefix(m, "f");
}

Result<SoMapping> ComposeSo(const SchemaMapping& m12,
                            const SchemaMapping& m23) {
  SoMapping so12 = SkolemizeWithPrefix(m12, "f");
  SoMapping so23 = SkolemizeWithPrefix(m23, "g");

  SoMapping composed;
  composed.source = m12.source;
  composed.target = m23.target;

  for (const SoImplication& sigma23 : so23.implications) {
    const size_t slots = sigma23.lhs.size();
    std::vector<std::vector<std::pair<size_t, size_t>>> candidates(slots);
    bool feasible = true;
    for (size_t s = 0; s < slots; ++s) {
      for (size_t t = 0; t < so12.implications.size(); ++t) {
        for (size_t r = 0; r < so12.implications[t].rhs.size(); ++r) {
          if (so12.implications[t].rhs[r].relation ==
              sigma23.lhs[s].relation) {
            candidates[s].emplace_back(t, r);
          }
        }
      }
      if (candidates[s].empty()) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;

    std::vector<size_t> choice(slots, 0);
    while (true) {
      SoImplication implication;
      std::map<Value, Term> theta;  // sigma23 variable -> term
      for (size_t s = 0; s < slots; ++s) {
        auto [t, r] = candidates[s][choice[s]];
        SoImplication copy =
            RenameImplicationApart(so12.implications[t], s);
        for (Atom& atom : copy.lhs) {
          if (std::find(implication.lhs.begin(), implication.lhs.end(),
                        atom) == implication.lhs.end()) {
            implication.lhs.push_back(std::move(atom));
          }
        }
        for (auto& eq : copy.equalities) {
          implication.equalities.push_back(std::move(eq));
        }
        const TermAtom& produced = copy.rhs[r];
        const Atom& consumed = sigma23.lhs[s];
        for (size_t p = 0; p < consumed.args.size(); ++p) {
          const Value& v = consumed.args[p];
          const Term& t_term = produced.args[p];
          auto it = theta.find(v);
          if (it == theta.end()) {
            theta.emplace(v, t_term);
          } else if (!(it->second == t_term)) {
            // The same sigma23 variable resolves to two different terms:
            // keep the constraint as an lhs equality (this is where the
            // genuinely second-order conditions arise).
            implication.equalities.emplace_back(it->second, t_term);
          }
        }
      }
      for (const TermAtom& atom : sigma23.rhs) {
        TermAtom mapped = atom;
        for (Term& term : mapped.args) term = SubstituteTerm(term, theta);
        implication.rhs.push_back(std::move(mapped));
      }
      PrettifySoImplication(&implication);
      if (std::find(composed.implications.begin(),
                    composed.implications.end(),
                    implication) == composed.implications.end()) {
        composed.implications.push_back(std::move(implication));
      }
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

Result<SchemaMapping> ComposeFullFirst(const SchemaMapping& m12,
                                       const SchemaMapping& m23) {
  if (!m12.IsFull()) {
    return Status::FailedPrecondition(
        "ComposeFullFirst requires the first mapping to be full "
        "(arbitrary-first compositions may need second-order tgds)");
  }
  QIMAP_ASSIGN_OR_RETURN(SoMapping so, ComposeSo(m12, m23));
  SchemaMapping composed;
  composed.source = so.source;
  composed.target = so.target;
  // Two tgds are equal up to a renaming of variables iff their atom sets
  // are the same size and one embeds injectively into the other.
  std::vector<Conjunction> kept;
  const auto source_size = static_cast<RelationId>(m12.source->size());
  for (SoImplication& implication : so.implications) {
    Tgd tgd = ReadBackTgd(std::move(implication));
    Conjunction atoms = AtomSetOf(tgd, source_size);
    if (std::none_of(kept.begin(), kept.end(), [&](const Conjunction& o) {
          return o.size() == atoms.size() &&
                 IsSubConjunctionUpToRenaming(atoms, o, {});
        })) {
      kept.push_back(std::move(atoms));
      composed.tgds.push_back(std::move(tgd));
    }
  }
  return composed;
}

namespace {

// Evaluates a term under a variable assignment and the free (term
// algebra) interpretation: each distinct ground term denotes one fresh
// null, interned in `term_values`.
Value EvalTerm(const Term& term, const Assignment& h,
               std::map<std::string, Value>* term_values,
               uint32_t* next_null) {
  if (term.IsVariable()) return Resolve(h, term.variable);
  std::string signature = term.function + "(";
  for (size_t i = 0; i < term.args.size(); ++i) {
    if (i > 0) signature += ",";
    signature += EvalTerm(term.args[i], h, term_values, next_null)
                     .ToString();
  }
  signature += ")";
  auto it = term_values->find(signature);
  if (it == term_values->end()) {
    it = term_values->emplace(signature, Value::MakeNull((*next_null)++))
             .first;
  }
  return it->second;
}

}  // namespace

Result<Instance> SoChase(const Instance& source_inst, const SoMapping& m,
                         const SoChaseOptions& options) {
  Instance target_inst(m.target);
  uint32_t next_null = source_inst.MaxNullLabel() + 1;
  std::map<std::string, Value> term_values;
  size_t steps = 0;
  Status failure = Status::OK();

  for (const SoImplication& implication : m.implications) {
    HomSearchOptions lhs_options;
    ForEachHomomorphism(
        implication.lhs, source_inst, {}, lhs_options,
        [&](const Assignment& h) {
          if (++steps > options.max_steps) {
            failure = Status::ResourceExhausted("SO chase step limit");
            return false;
          }
          for (const auto& [a, b] : implication.equalities) {
            if (!(EvalTerm(a, h, &term_values, &next_null) ==
                  EvalTerm(b, h, &term_values, &next_null))) {
              return true;  // equality guard fails; skip this match
            }
          }
          for (const TermAtom& atom : implication.rhs) {
            Tuple tuple;
            tuple.reserve(atom.args.size());
            for (const Term& term : atom.args) {
              tuple.push_back(EvalTerm(term, h, &term_values, &next_null));
            }
            Status status = target_inst.AddFact(atom.relation,
                                                std::move(tuple));
            if (!status.ok()) {
              failure = status;
              return false;
            }
          }
          return true;
        });
    if (!failure.ok()) return failure;
  }
  return target_inst;
}

}  // namespace qimap
