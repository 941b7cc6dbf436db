#include "core/mingen.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "base/budget.h"
#include "chase/chase.h"
#include "obs/budget_obs.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "relational/homomorphism.h"

namespace qimap {
namespace {

// Mirrors one run's totals into the process-wide metrics registry.
void FlushMinGenMetrics(const MinGenStats& st) {
  static const obs::MetricId kRuns = obs::RegisterCounter("mingen.runs");
  static const obs::MetricId kCandidates =
      obs::RegisterCounter("mingen.candidates");
  static const obs::MetricId kDedup =
      obs::RegisterCounter("mingen.dedup_pruned");
  static const obs::MetricId kDominated =
      obs::RegisterCounter("mingen.dominated_pruned");
  static const obs::MetricId kTests =
      obs::RegisterCounter("mingen.generator_tests");
  static const obs::MetricId kGenerators =
      obs::RegisterCounter("mingen.generators");
  obs::CounterAdd(kRuns);
  obs::CounterAdd(kCandidates, st.candidates);
  obs::CounterAdd(kDedup, st.dedup_pruned);
  obs::CounterAdd(kDominated, st.dominated_pruned);
  obs::CounterAdd(kTests, st.generator_tests);
  obs::CounterAdd(kGenerators, st.generators);
}

// Fresh generator variables #z1, #z2, ... ('#' cannot appear in parsed
// dependencies, so they never collide with user variables).
Value FreshZ(size_t index) {
  return Value::MakeVariable("#z" + std::to_string(index + 1));
}

bool ContainsAllX(const Conjunction& beta, const std::vector<Value>& x) {
  std::set<Value> vars = VariableSetOf(beta);
  for (const Value& v : x) {
    if (vars.count(v) == 0) return false;
  }
  return true;
}

// Near-canonical key for a candidate conjunction, up to renaming of the
// fresh #z variables: sort, rename by first occurrence, sort, rename,
// render. Imperfect canonicalization only costs duplicated search work;
// the final minimization deduplicates exactly.
std::string CanonicalKey(Conjunction conj, const std::set<Value>& x_set) {
  for (int round = 0; round < 2; ++round) {
    std::sort(conj.begin(), conj.end());
    std::map<Value, Value> rename;
    size_t next = 0;
    for (Atom& atom : conj) {
      for (Value& v : atom.args) {
        if (!v.IsVariable() || x_set.count(v) > 0) continue;
        auto it = rename.find(v);
        if (it == rename.end()) {
          it = rename.emplace(v, FreshZ(next++)).first;
        }
        v = it->second;
      }
    }
  }
  std::sort(conj.begin(), conj.end());
  std::string key;
  for (const Atom& atom : conj) {
    key += std::to_string(atom.relation);
    key += '(';
    for (const Value& v : atom.args) {
      key += v.ToString();
      key += ',';
    }
    key += ')';
  }
  return key;
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

// Enumerates every atom that may extend a candidate that currently uses
// `used_z` fresh variables: arguments come from `x`, the used fresh
// variables, or new fresh variables introduced left-to-right in index
// order.
void EnumerateAtoms(const Schema& schema, const std::vector<Value>& x,
                    size_t used_z, std::vector<Atom>* out) {
  for (RelationId r = 0; r < schema.size(); ++r) {
    uint32_t arity = schema.relation(r).arity;
    // Recursive position filling.
    struct Filler {
      const std::vector<Value>& x;
      uint32_t arity;
      RelationId relation;
      std::vector<Atom>* out;
      std::vector<Value> args;

      void Fill(size_t pos, size_t z_avail, size_t z_base) {
        if (pos == arity) {
          out->push_back(Atom{relation, args});
          return;
        }
        for (const Value& v : x) {
          args.push_back(v);
          Fill(pos + 1, z_avail, z_base);
          args.pop_back();
        }
        for (size_t i = 0; i < z_avail; ++i) {
          args.push_back(FreshZ(i));
          Fill(pos + 1, z_avail, z_base);
          args.pop_back();
        }
        // Introduce the next fresh variable (exactly one new choice keeps
        // the enumeration canonical up to renaming).
        args.push_back(FreshZ(z_avail));
        Fill(pos + 1, z_avail + 1, z_base);
        args.pop_back();
      }
    };
    Filler filler{x, arity, r, out, {}};
    filler.Fill(0, used_z, used_z);
  }
}

size_t CountFreshZ(const Conjunction& conj, const std::set<Value>& x_set) {
  std::set<Value> fresh;
  for (const Atom& atom : conj) {
    for (const Value& v : atom.args) {
      if (v.IsVariable() && x_set.count(v) == 0) fresh.insert(v);
    }
  }
  return fresh.size();
}

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
  static const obs::MetricId kLatency =
      obs::RegisterHistogram("mingen.latency_us");
  obs::ScopedLatency latency(kLatency);
  QIMAP_TRACE_SPAN("mingen/search");

  // Profiling: one entry per search unit (the conjunction being
  // inverted). The frozen-x psi-embedding searches of the generator
  // tests attribute per-atom to this entry; each test's inner chase
  // registers and attributes its own dependencies on top, so hot-spot
  // data aggregates across all of MinGen's chases.
  uint32_t prof_dep = obs::kProfileNoDep;
  if (obs::Profiler::Enabled()) {
    prof_dep = obs::Profiler::RegisterDep(
        "mingen", ConjunctionToString(psi, *m.target),
        static_cast<uint32_t>(psi.size()));
  }
  obs::ProfiledDepScope prof_scope(prof_dep, obs::ProfilePhase::kCollect);

  // Lemma 4.4: minimal generators have at most s1*s2 conjuncts.
  size_t s1 = 0;
  for (const Tgd& tgd : m.tgds) s1 = std::max(s1, tgd.lhs.size());
  size_t max_atoms =
      options.max_atoms != 0 ? options.max_atoms : s1 * psi.size();
  std::set<Value> x_set(x.begin(), x.end());

  MinGenStats local_stats;
  MinGenStats& st = options.stats != nullptr ? *options.stats : local_stats;
  st = MinGenStats{};
  // Flush whatever was counted on every exit path, including errors. The
  // profiler entry reuses the same stats: candidates examined land in
  // triggers_found, minimal generators in fired, pruned candidates in
  // skipped.
  struct Flusher {
    MinGenStats* st;
    uint32_t prof_dep;
    ~Flusher() {
      FlushMinGenMetrics(*st);
      obs::ProfileRecordOutcomes(prof_dep, st->candidates, st->generators,
                                 st->dedup_pruned + st->dominated_pruned);
    }
  } flusher{&st, prof_dep};

  std::vector<Conjunction> generators;
  std::vector<Conjunction> frontier = {Conjunction{}};
  std::set<std::string> seen;

  // The candidate valve doubles as the run's local step limit; the shared
  // budget adds deadline/memory/null/cancellation governance on top.
  RunBudget guard("MinGen", options.max_candidates, options.budget,
                  "(raise MinGenOptions::max_candidates)");
  // Heartbeats over the candidate enumeration; the candidate valve is
  // the natural total (the run cannot outlast it).
  obs::ProgressRun progress(
      "mingen",
      [&st]() {
        obs::ProgressSample sample;
        sample.facts = st.generator_tests;
        sample.fired = st.generators;
        sample.skipped = st.dedup_pruned + st.dominated_pruned;
        return sample;
      },
      options.budget);
  progress.SetTotalEstimate(options.max_candidates);
  // Ends the search on a budget trip: journal + budget.* metrics, then
  // the generators found so far (unminimized) as the partial result. The
  // rule events of a tripped run are never emitted, so the ad-hoc journal
  // run only ever carries this budget event.
  auto trip = [&](Status status) -> Status {
    st.partial = true;
    obs::JournalRun trip_journal("mingen");
    obs::ReportBudgetTrip(trip_journal, guard, status,
                          options.partial_out != nullptr);
    if (options.partial_out != nullptr) {
      *options.partial_out = std::move(generators);
    }
    return status;
  };

  for (size_t size = 1; size <= max_atoms && !frontier.empty(); ++size) {
    std::vector<Conjunction> next_frontier;
    for (const Conjunction& current : frontier) {
      size_t used_z = CountFreshZ(current, x_set);
      std::vector<Atom> extensions;
      EnumerateAtoms(*m.source, x, used_z, &extensions);
      for (const Atom& atom : extensions) {
        if (std::find(current.begin(), current.end(), atom) !=
            current.end()) {
          continue;
        }
        Conjunction child = current;
        child.push_back(atom);
        if (options.dedup_candidates) {
          std::string key = CanonicalKey(child, x_set);
          if (!seen.insert(std::move(key)).second) {
            ++st.dedup_pruned;
            continue;
          }
        }
        // Strict supersets of a found generator are never minimal.
        bool dominated = false;
        for (const Conjunction& g : generators) {
          if (IsSubConjunctionUpToRenaming(g, child, x)) {
            dominated = true;
            break;
          }
        }
        if (dominated) {
          ++st.dominated_pruned;
          continue;
        }
        {
          Status tick = guard.Tick();
          if (!tick.ok()) return trip(std::move(tick));
        }
        progress.Step();
        ++st.candidates;
        bool is_generator = false;
        if (ContainsAllX(child, x)) {
          ++st.generator_tests;
          Result<bool> tested =
              IsGenerator(m, child, psi, x, options.budget);
          if (!tested.ok()) {
            // The inner chase journals its own trip; here we only hand
            // back the partial generator list.
            if (guard.exhausted()) return trip(tested.status());
            return tested.status();
          }
          is_generator = *tested;
        }
        if (is_generator) {
          generators.push_back(std::move(child));
        } else if (size < max_atoms) {
          next_frontier.push_back(std::move(child));
        }
      }
    }
    frontier = std::move(next_frontier);
  }

  // Paper's Step 3 (minimize): drop duplicates up to renaming, then any
  // member containing another as a sub-conjunction. Level-order search
  // makes strict supersets rare, but near-canonical dedup can leave
  // renaming-equal twins.
  std::vector<Conjunction> minimal;
  for (const Conjunction& g : generators) {
    bool drop = false;
    for (const Conjunction& kept : minimal) {
      if (IsSubConjunctionUpToRenaming(kept, g, x)) {
        drop = true;
        break;
      }
    }
    if (!drop) minimal.push_back(g);
  }
  st.generators = minimal.size();
  // Provenance: one rule event per minimal generator, attributing it to
  // the conjunction it generates; ids flow back through the stats so
  // QuasiInverse can parent its emitted rules on them.
  obs::JournalRun journal("mingen");
  if (journal.active()) {
    std::string psi_text = ConjunctionToString(psi, *m.target);
    std::string x_text;
    for (const Value& v : x) {
      if (!x_text.empty()) x_text += ", ";
      x_text += v.ToString();
    }
    for (const Conjunction& g : minimal) {
      st.generator_event_ids.push_back(journal.RecordRule(
          ConjunctionToString(g, *m.source), psi_text, -1, x_text, {}));
    }
  }
  return minimal;
}

}  // namespace qimap
