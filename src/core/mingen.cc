#include "core/mingen.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "base/budget.h"
#include "chase/chase.h"
#include "core/sigma_star.h"
#include "obs/metrics.h"
#include "obs/pipeline_run.h"
#include "obs/profiler.h"
#include "relational/homomorphism.h"

namespace qimap {
namespace {

constexpr obs::PipelineSpec kRun = {"mingen/search", "mingen", "MinGen",
                                    "(raise MinGenOptions::max_candidates)"};

// Mirrors one run's totals into the process-wide metrics registry.
void FlushMinGenMetrics(const MinGenStats& st) {
  static const obs::MetricId kRuns = obs::RegisterCounter("mingen.runs");
  static const obs::MetricId kCandidates =
      obs::RegisterCounter("mingen.candidates");
  static const obs::MetricId kCovers = obs::RegisterCounter("mingen.covers");
  static const obs::MetricId kDominated =
      obs::RegisterCounter("mingen.dominated_pruned");
  static const obs::MetricId kGenerators =
      obs::RegisterCounter("mingen.generators");
  obs::CounterAdd(kRuns);
  obs::CounterAdd(kCandidates, st.candidates);
  obs::CounterAdd(kCovers, st.covers);
  obs::CounterAdd(kDominated, st.dominated_pruned);
  obs::CounterAdd(kGenerators, st.generators);
}

// Fresh generator variables #z1, #z2, ... ('#' cannot appear in parsed
// dependencies, so they never collide with user variables).
Value FreshZ(size_t index) {
  return Value::MakeVariable("#z" + std::to_string(index + 1));
}

// Backtracking embedding of `small`'s atoms into `big`'s atoms where the
// `x` variables are fixed and the other variables map injectively to
// non-x variables of `big`.
bool Embed(const Conjunction& small, const Conjunction& big,
           const std::set<Value>& x_set, size_t index,
           std::map<Value, Value>* mapping, std::set<Value>* used) {
  if (index == small.size()) return true;
  const Atom& atom = small[index];
  for (const Atom& candidate : big) {
    if (candidate.relation != atom.relation) continue;
    std::vector<Value> bound;
    bool ok = true;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Value& from = atom.args[i];
      const Value& to = candidate.args[i];
      if (!from.IsVariable() || x_set.count(from) > 0) {
        if (from != to) {
          ok = false;
          break;
        }
        continue;
      }
      // A fresh variable: must map to a non-x variable, injectively.
      auto it = mapping->find(from);
      if (it != mapping->end()) {
        if (it->second != to) {
          ok = false;
          break;
        }
        continue;
      }
      if (!to.IsVariable() || x_set.count(to) > 0 || used->count(to) > 0) {
        ok = false;
        break;
      }
      mapping->emplace(from, to);
      used->insert(to);
      bound.push_back(from);
    }
    if (ok && Embed(small, big, x_set, index + 1, mapping, used)) {
      return true;
    }
    for (const Value& v : bound) {
      used->erase(mapping->at(v));
      mapping->erase(v);
    }
  }
  return false;
}

bool OverVariables(const Conjunction& conj) {
  for (const Atom& atom : conj) {
    for (const Value& v : atom.args) {
      if (!v.IsVariable()) return false;
    }
  }
  return true;
}

// An atom over small integers: variable numbers inside a NumberedTgd or
// psi, argument codes inside a rewriting (code `c < |x|` is x[c], code
// `|x| + k` the k-th fresh variable).
struct CodedAtom {
  RelationId relation = 0;
  std::vector<uint32_t> args;

  friend bool operator==(const CodedAtom&, const CodedAtom&) = default;
  friend auto operator<=>(const CodedAtom&, const CodedAtom&) = default;
};

// Numbers the variables of `conj` in first-occurrence order, extending
// `vars` (the number of a variable is its index there).
std::vector<CodedAtom> NumberAtoms(const Conjunction& conj,
                                   std::vector<Value>* vars) {
  std::vector<CodedAtom> out;
  for (const Atom& atom : conj) {
    CodedAtom coded{atom.relation, {}};
    for (const Value& v : atom.args) {
      auto it = std::find(vars->begin(), vars->end(), v);
      coded.args.push_back(static_cast<uint32_t>(it - vars->begin()));
      if (it == vars->end()) vars->push_back(v);
    }
    out.push_back(std::move(coded));
  }
  return out;
}

// A tgd with its variables numbered, the universal (lhs) ones first.
struct NumberedTgd {
  std::vector<CodedAtom> lhs;
  std::vector<CodedAtom> rhs;
  uint32_t num_universal = 0;
  uint32_t num_vars = 0;
};

NumberedTgd NumberTgd(const Tgd& tgd) {
  NumberedTgd out;
  std::vector<Value> vars;
  out.lhs = NumberAtoms(tgd.lhs, &vars);
  out.num_universal = static_cast<uint32_t>(vars.size());
  out.rhs = NumberAtoms(tgd.rhs, &vars);
  out.num_vars = static_cast<uint32_t>(vars.size());
  return out;
}

// Steps `digits` to the next tuple of a mixed-radix counter; false after
// the last tuple.
bool Advance(std::vector<size_t>* digits, const std::vector<size_t>& radix) {
  for (size_t i = digits->size(); i-- > 0;) {
    if (++(*digits)[i] < radix[i]) return true;
    (*digits)[i] = 0;
  }
  return false;
}

// Union-find over psi's variables and the cover's tgd-copy variables.
class UnionFind {
 public:
  void Reset(size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  uint32_t Find(uint32_t a) {
    while (parent_[a] != a) a = parent_[a] = parent_[parent_[a]];
    return a;
  }
  void Union(uint32_t a, uint32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<uint32_t> parent_;
};

// What a cover resolves psi atom i against: the tgd of its block and the
// index of the conclusion atom in that tgd's rhs.
struct Resolvent {
  uint32_t tgd = 0;
  uint32_t conclusion = 0;
};

constexpr uint32_t kNone = ~0u;

// psi and Sigma numbered for unification. Node ids: psi's variables come
// first, then each block's renamed-apart tgd copy.
class Resolver {
 public:
  Resolver(const SchemaMapping& m, const Conjunction& psi,
           const std::vector<Value>& x)
      : num_x_(static_cast<uint32_t>(x.size())) {
    std::vector<Value> psi_vars;
    psi_ = NumberAtoms(psi, &psi_vars);
    for (const Value& v : psi_vars) {
      auto it = std::find(x.begin(), x.end(), v);
      x_of_node_.push_back(
          it == x.end() ? kNone : static_cast<uint32_t>(it - x.begin()));
    }
    for (const Tgd& tgd : m.tgds) tgds_.push_back(NumberTgd(tgd));
    matches_.assign(psi_.size(),
                    std::vector<std::vector<uint32_t>>(tgds_.size()));
    for (size_t i = 0; i < psi_.size(); ++i) {
      for (size_t t = 0; t < tgds_.size(); ++t) {
        for (size_t c = 0; c < tgds_[t].rhs.size(); ++c) {
          if (tgds_[t].rhs[c].relation == psi_[i].relation) {
            matches_[i][t].push_back(static_cast<uint32_t>(c));
          }
        }
      }
    }
  }

  // Conclusion atoms of tgd `t` with psi atom `i`'s relation.
  const std::vector<uint32_t>& matches(size_t i, size_t t) const {
    return matches_[i][t];
  }
  // Variables a cover renames apart: one copy of a tgd per block.
  size_t CopyVariables(const std::vector<size_t>& block_tgd) const {
    size_t total = 0;
    for (size_t t : block_tgd) total += tgds_[t].num_vars;
    return total;
  }

  // Unifies every psi atom with its resolvent in the copy of its block
  // (`block_tgd[b]` is block b's tgd). MiniCon's rule rejects the cover
  // when a class holds two x variables, or an existential together with
  // an x, a universal or a second existential variable. Otherwise returns
  // the rewriting, the copies' premises, with each class coded as its x
  // or as a fresh variable numbered by first occurrence.
  bool Rewrite(const std::vector<size_t>& block,
               const std::vector<size_t>& block_tgd,
               const std::vector<Resolvent>& cover,
               std::vector<CodedAtom>* rewriting, uint32_t* num_fresh) {
    const uint32_t num_psi = static_cast<uint32_t>(x_of_node_.size());
    std::vector<uint32_t> base(block_tgd.size());
    uint32_t nodes = num_psi;
    for (size_t b = 0; b < block_tgd.size(); ++b) {
      base[b] = nodes;
      nodes += tgds_[block_tgd[b]].num_vars;
    }
    uf_.Reset(nodes);
    for (size_t i = 0; i < psi_.size(); ++i) {
      const CodedAtom& atom = psi_[i];
      const CodedAtom& conclusion =
          tgds_[cover[i].tgd].rhs[cover[i].conclusion];
      for (size_t p = 0; p < atom.args.size(); ++p) {
        uf_.Union(atom.args[p], base[block[i]] + conclusion.args[p]);
      }
    }
    // Per class: its x (kNone if none), universal and existential counts.
    class_x_.assign(nodes, kNone);
    universals_.assign(nodes, 0);
    existentials_.assign(nodes, 0);
    for (uint32_t node = 0; node < num_psi; ++node) {
      if (x_of_node_[node] == kNone) continue;
      uint32_t root = uf_.Find(node);
      if (class_x_[root] != kNone) return false;
      class_x_[root] = x_of_node_[node];
    }
    for (size_t b = 0; b < block_tgd.size(); ++b) {
      const NumberedTgd& tgd = tgds_[block_tgd[b]];
      for (uint32_t v = 0; v < tgd.num_vars; ++v) {
        uint32_t root = uf_.Find(base[b] + v);
        ++(v < tgd.num_universal ? universals_ : existentials_)[root];
      }
    }
    for (uint32_t root = 0; root < nodes; ++root) {
      if (existentials_[root] > 0 &&
          (existentials_[root] > 1 || universals_[root] > 0 ||
           class_x_[root] != kNone)) {
        return false;
      }
    }
    // Premise variables are universal, so their classes hold no
    // existential: each is its x or a fresh variable.
    rewriting->clear();
    *num_fresh = 0;
    for (size_t b = 0; b < block_tgd.size(); ++b) {
      for (const CodedAtom& premise : tgds_[block_tgd[b]].lhs) {
        CodedAtom coded{premise.relation, {}};
        for (uint32_t v : premise.args) {
          uint32_t root = uf_.Find(base[b] + v);
          if (class_x_[root] == kNone) {
            class_x_[root] = num_x_ + (*num_fresh)++;
          }
          coded.args.push_back(class_x_[root]);
        }
        rewriting->push_back(std::move(coded));
      }
    }
    return true;
  }

 private:
  uint32_t num_x_;
  std::vector<CodedAtom> psi_;
  std::vector<uint32_t> x_of_node_;
  std::vector<NumberedTgd> tgds_;
  std::vector<std::vector<std::vector<uint32_t>>> matches_;
  UnionFind uf_;
  std::vector<uint32_t> class_x_;
  std::vector<uint32_t> universals_;
  std::vector<uint32_t> existentials_;
};

// Calls `visit(theta)` for every substitution that fixes x and sends the
// rewriting's `num_fresh` fresh variables to x variables or to each
// other: a restricted-growth string where `theta[k] < num_x` sends fresh
// variable k to x[theta[k]] and `theta[k] = num_x + b` puts it in fresh
// block b. Stops at the first non-OK status.
template <typename Visit>
Status ForEachSpecialization(uint32_t num_x, uint32_t num_fresh,
                             std::vector<uint32_t>* theta, uint32_t blocks,
                             Visit& visit) {
  size_t k = theta->size();
  if (k == num_fresh) return visit(*theta);
  for (uint32_t code = 0; code <= num_x + blocks; ++code) {
    theta->push_back(code);
    Status status = ForEachSpecialization(
        num_x, num_fresh, theta, code == num_x + blocks ? blocks + 1 : blocks,
        visit);
    theta->pop_back();
    if (!status.ok()) return status;
  }
  return Status::OK();
}

// theta(rewriting) without duplicate atoms, sorted, with its fresh
// variables renumbered by first occurrence.
std::vector<CodedAtom> Specialize(const std::vector<CodedAtom>& rewriting,
                                  const std::vector<uint32_t>& theta,
                                  uint32_t num_x) {
  std::vector<CodedAtom> out = rewriting;
  for (CodedAtom& atom : out) {
    for (uint32_t& code : atom.args) {
      if (code >= num_x) code = theta[code - num_x];
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  std::vector<uint32_t> renumber(theta.size(), kNone);
  uint32_t next = num_x;
  for (CodedAtom& atom : out) {
    for (uint32_t& code : atom.args) {
      if (code < num_x) continue;
      uint32_t& fresh = renumber[code - num_x];
      if (fresh == kNone) fresh = next++;
      code = fresh;
    }
  }
  return out;
}

// One examined specialization: coded (the sort key), as a conjunction
// (what IsSubConjunctionUpToRenaming and the caller see), and the index
// of the cover it came from.
struct Specialization {
  std::vector<CodedAtom> coded;
  Conjunction atoms;
  size_t cover = 0;
};

}  // namespace

Result<bool> IsGenerator(const SchemaMapping& m, const Conjunction& beta,
                         const Conjunction& psi,
                         const std::vector<Value>& x, Budget* budget) {
  Instance canonical = CanonicalInstance(beta, m.source);
  ChaseOptions chase_options;
  chase_options.budget = budget;
  QIMAP_ASSIGN_OR_RETURN(Instance chased,
                         Chase(canonical, m, chase_options));
  // The shared variables are frozen: psi must embed into the chase with
  // each x mapped to itself; the existential y map anywhere.
  Assignment partial;
  for (const Value& v : x) partial.emplace(v, v);
  HomSearchOptions options;
  return HasHomomorphism(psi, chased, partial, options);
}

bool IsSubConjunctionUpToRenaming(const Conjunction& small,
                                  const Conjunction& big,
                                  const std::vector<Value>& x) {
  if (small.size() > big.size()) return false;
  std::set<Value> x_set(x.begin(), x.end());
  std::map<Value, Value> mapping;
  std::set<Value> used;
  return Embed(small, big, x_set, 0, &mapping, &used);
}

Result<std::vector<Conjunction>> MinGen(const SchemaMapping& m,
                                        const Conjunction& psi,
                                        const std::vector<Value>& x,
                                        const MinGenOptions& options) {
  MinGenStats local_stats;
  MinGenStats& st = options.stats != nullptr ? *options.stats : local_stats;
  st = MinGenStats{};
  // The candidate valve doubles as the run's local step limit; the shared
  // budget adds deadline/memory/null/cancellation governance on top.
  // Heartbeats over the search carry no total estimate: the valve only
  // caps the run, and a typical search stops far below it.
  obs::PipelineRun run(kRun, options.max_candidates, options.budget, [&st]() {
    obs::ProgressSample sample;
    sample.facts = st.covers;
    sample.fired = st.generators;
    sample.skipped = st.dominated_pruned;
    return sample;
  });

  // Profiling: one entry per search unit (the conjunction being
  // inverted), carrying the search's wall time and outcomes.
  uint32_t prof_dep = obs::kProfileNoDep;
  if (obs::Profiler::Enabled()) {
    prof_dep = run.RegisterDep(ConjunctionToString(psi, *m.target),
                               static_cast<uint32_t>(psi.size()));
  }
  obs::ProfiledDepScope prof_scope(prof_dep, obs::ProfilePhase::kCollect);

  // Flush whatever was counted on every exit path, including errors. The
  // profiler entry reuses the same stats: specializations examined land
  // in triggers_found, minimal generators in fired, pruned ones in
  // skipped.
  struct Flusher {
    MinGenStats* st;
    uint32_t prof_dep;
    ~Flusher() {
      FlushMinGenMetrics(*st);
      obs::ProfileRecordOutcomes(prof_dep, st->candidates, st->generators,
                                 st->dominated_pruned);
    }
  } flusher{&st, prof_dep};

  bool over_variables = OverVariables(psi);
  for (const Tgd& tgd : m.tgds) {
    over_variables =
        over_variables && OverVariables(tgd.lhs) && OverVariables(tgd.rhs);
  }
  if (!over_variables) {
    return Status::InvalidArgument(
        "MinGen: psi and the tgds must range over variables");
  }

  std::vector<Specialization> found;
  // Ends the search on a budget trip: journal + budget.* metrics, then
  // the specializations found so far (generators, unminimized) as the
  // partial result. The rule events of a tripped run are never emitted,
  // so its journal run only ever carries this budget event.
  auto trip = [&](Status status) -> Status {
    st.partial = true;
    run.Trip(status, options.partial_out != nullptr);
    if (options.partial_out != nullptr) {
      options.partial_out->clear();
      for (Specialization& s : found) {
        options.partial_out->push_back(std::move(s.atoms));
      }
    }
    return status;
  };

  const uint32_t num_x = static_cast<uint32_t>(x.size());
  std::vector<Value> fresh_values;
  Resolver resolver(m, psi, x);
  // The unified covers, for the journal's account of each generator.
  std::vector<std::vector<Resolvent>> covers;
  std::vector<CodedAtom> rewriting;
  std::vector<uint32_t> theta;
  auto visit = [&](const std::vector<uint32_t>& subst) -> Status {
    QIMAP_RETURN_IF_ERROR(run.Tick());
    ++st.candidates;
    Specialization s;
    s.coded = Specialize(rewriting, subst, num_x);
    s.cover = covers.size() - 1;
    for (const CodedAtom& atom : s.coded) {
      QIMAP_RETURN_IF_ERROR(run.ChargeMemory(
          ApproxFactBytes(atom.args.size(), sizeof(Value))));
      Atom out{atom.relation, {}};
      for (uint32_t code : atom.args) {
        if (code < num_x) {
          out.args.push_back(x[code]);
          continue;
        }
        while (fresh_values.size() <= code - num_x) {
          fresh_values.push_back(FreshZ(fresh_values.size()));
        }
        out.args.push_back(fresh_values[code - num_x]);
      }
      s.atoms.push_back(std::move(out));
    }
    found.push_back(std::move(s));
    return Status::OK();
  };

  // Covers: a set partition of psi's atoms into blocks, one tgd per block
  // and, per psi atom, a same-relation conclusion atom of its block's tgd.
  const size_t n = psi.size();
  for (const std::vector<size_t>& block : SetPartitions(n)) {
    size_t num_blocks =
        n == 0 ? 0 : *std::max_element(block.begin(), block.end()) + 1;
    // One tgd per block: an odometer over Sigma, skipping choices that
    // leave some psi atom without a same-relation conclusion atom.
    if (num_blocks > 0 && m.tgds.empty()) continue;
    std::vector<size_t> block_tgd(num_blocks, 0);
    const std::vector<size_t> tgd_radix(num_blocks, m.tgds.size());
    do {
      std::vector<size_t> atom_pick(n, 0);
      std::vector<size_t> atom_radix(n);
      for (size_t i = 0; i < n; ++i) {
        atom_radix[i] = resolver.matches(i, block_tgd[block[i]]).size();
      }
      if (std::count(atom_radix.begin(), atom_radix.end(), 0u) > 0) continue;
      std::vector<Resolvent> cover(n);
      do {
        Status status = run.Tick();
        if (status.ok()) {
          status = run.ChargeNulls(resolver.CopyVariables(block_tgd));
        }
        if (!status.ok()) return trip(std::move(status));
        for (size_t i = 0; i < n; ++i) {
          size_t t = block_tgd[block[i]];
          cover[i] = {static_cast<uint32_t>(t),
                      resolver.matches(i, t)[atom_pick[i]]};
        }
        uint32_t num_fresh = 0;
        if (!resolver.Rewrite(block, block_tgd, cover, &rewriting,
                              &num_fresh)) {
          continue;
        }
        ++st.covers;
        covers.push_back(cover);
        theta.clear();
        status = ForEachSpecialization(num_x, num_fresh, &theta, 0, visit);
        if (!status.ok()) return trip(std::move(status));
      } while (Advance(&atom_pick, atom_radix));
    } while (Advance(&block_tgd, tgd_radix));
  }

  // Paper's Step 3 (minimize). Every specialization is a generator, and
  // every minimal generator is one of them, so the minimal generators are
  // the minimal specializations. Sorted by size, a specialization is
  // minimal unless a kept one embeds into it; the same test drops renamed
  // twins. The pass is quadratic in the specializations, so it still
  // honors the deadline and cancellation.
  std::stable_sort(found.begin(), found.end(),
                   [](const Specialization& a, const Specialization& b) {
                     if (a.coded.size() != b.coded.size()) {
                       return a.coded.size() < b.coded.size();
                     }
                     return a.coded < b.coded;
                   });
  std::vector<Specialization*> minimal;
  for (Specialization& s : found) {
    {
      Status check = run.Check();
      if (!check.ok()) return trip(std::move(check));
    }
    bool dominated = false;
    for (const Specialization* kept : minimal) {
      if (IsSubConjunctionUpToRenaming(kept->atoms, s.atoms, x)) {
        dominated = true;
        break;
      }
    }
    if (dominated) {
      ++st.dominated_pruned;
    } else {
      minimal.push_back(&s);
    }
  }
  st.generators = minimal.size();
  // Provenance: one rule event per minimal generator, attributing it to
  // the conjunction it generates, with the cover that produced it as the
  // bindings: "psi atom <= #tgd conclusion atom" per psi atom. The ids
  // flow back through the stats so QuasiInverse can parent its emitted
  // rules on them.
  auto& journal = run.journal();
  if (journal.active()) {
    std::string psi_text = ConjunctionToString(psi, *m.target);
    for (const Specialization* s : minimal) {
      std::string bindings;
      const std::vector<Resolvent>& cover = covers[s->cover];
      for (size_t i = 0; i < cover.size(); ++i) {
        if (i > 0) bindings += ", ";
        bindings += AtomToString(psi[i], *m.target) + " <= #" +
                    std::to_string(cover[i].tgd) + " " +
                    AtomToString(m.tgds[cover[i].tgd].rhs[cover[i].conclusion],
                                 *m.target);
      }
      st.generator_event_ids.push_back(journal.RecordRule(
          ConjunctionToString(s->atoms, *m.source), psi_text, -1, bindings,
          {}));
    }
  }
  std::vector<Conjunction> out;
  out.reserve(minimal.size());
  for (Specialization* s : minimal) out.push_back(std::move(s->atoms));
  return out;
}

}  // namespace qimap
