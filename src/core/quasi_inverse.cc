#include "core/quasi_inverse.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "base/budget.h"
#include "core/sigma_star.h"
#include "obs/metrics.h"
#include "obs/pipeline_run.h"
#include "obs/profiler.h"
#include "relational/homomorphism.h"

namespace qimap {
namespace {

constexpr obs::PipelineSpec kRun = {"quasi_inverse/run", "quasi_inverse",
                                    "QuasiInverse"};

// Renames every '#'-prefixed fresh variable of the dependency to the first
// unused name among z1, z2, ... (fresh MinGen variables are generated as
// #z1, #z2, ... to avoid capture; this makes the output readable).
void PrettifyFreshVariables(DisjunctiveTgd* dep) {
  std::set<std::string> taken;
  auto collect = [&taken](const Conjunction& conj) {
    for (const Atom& atom : conj) {
      for (const Value& v : atom.args) {
        if (v.IsVariable()) taken.insert(v.ToString());
      }
    }
  };
  collect(dep->lhs);
  for (const Conjunction& d : dep->disjuncts) collect(d);

  std::map<Value, Value> rename;
  size_t next = 1;
  auto rename_value = [&](Value& v) {
    if (!v.IsVariable()) return;
    std::string name = v.ToString();
    if (name.empty() || name[0] != '#') return;
    auto it = rename.find(v);
    if (it == rename.end()) {
      std::string fresh;
      do {
        fresh = "z" + std::to_string(next++);
      } while (taken.count(fresh) > 0);
      taken.insert(fresh);
      it = rename.emplace(v, Value::MakeVariable(fresh)).first;
    }
    v = it->second;
  };
  for (Conjunction& d : dep->disjuncts) {
    for (Atom& atom : d) {
      for (Value& v : atom.args) rename_value(v);
    }
  }
}

}  // namespace

std::vector<Conjunction> PruneSubsumedConjunctions(
    const std::vector<Conjunction>& conjunctions,
    const std::vector<Value>& x, SchemaPtr schema) {
  std::vector<Conjunction> kept;
  for (const Conjunction& candidate : conjunctions) {
    bool subsumed = false;
    for (const Conjunction& existing : kept) {
      if (DisjunctSubsumes(existing, candidate, x, schema)) {
        subsumed = true;
        break;
      }
    }
    if (subsumed) continue;
    // The new member may be more general than ones kept earlier.
    std::vector<Conjunction> still_kept;
    for (Conjunction& existing : kept) {
      if (!DisjunctSubsumes(candidate, existing, x, schema)) {
        still_kept.push_back(std::move(existing));
      }
    }
    kept = std::move(still_kept);
    kept.push_back(candidate);
  }
  return kept;
}

bool DisjunctSubsumes(const Conjunction& general,
                      const Conjunction& specific,
                      const std::vector<Value>& x, SchemaPtr schema) {
  Instance canonical = CanonicalInstance(specific, std::move(schema));
  Assignment partial;
  for (const Value& v : x) partial.emplace(v, v);
  HomSearchOptions options;
  return HasHomomorphism(general, canonical, partial, options);
}

Result<ReverseMapping> QuasiInverse(const SchemaMapping& m,
                                    const QuasiInverseOptions& options) {
  static const obs::MetricId kRuns = obs::RegisterCounter("qinv.runs");
  static const obs::MetricId kSigmaStar =
      obs::RegisterCounter("qinv.sigma_star_rules");
  static const obs::MetricId kRules =
      obs::RegisterCounter("qinv.rules_emitted");
  ReverseMapping reverse;
  reverse.from = m.target;
  reverse.to = m.source;
  // Heartbeats: one step per sigma-star member; the member count is the
  // exact total. The MinGen searches underneath emit their own runs. They
  // sample `emitted`, not `reverse`, which is moved out before the final
  // one.
  size_t emitted = 0;
  obs::PipelineRun run(kRun, 0, options.budget, [&emitted]() {
    obs::ProgressSample sample;
    sample.fired = emitted;
    return sample;
  });
  auto& journal = run.journal();
  obs::CounterAdd(kRuns);

  // Ends the inversion on a budget trip: journal + budget.* metrics, then
  // the dependencies derived so far as the best-effort partial result.
  auto trip = [&](Status status) -> Status {
    run.Trip(status, options.partial_out != nullptr);
    reverse.partial = true;
    if (options.partial_out != nullptr) {
      *options.partial_out = std::move(reverse);
    }
    return status;
  };

  std::vector<Tgd> sigma_star = SigmaStar(m);
  run.SetTotalEstimate(sigma_star.size());
  // Profiling: one entry per sigma-star member inverted. The MinGen
  // search attributes its own entry; this one carries the per-member
  // wall time and outcome.
  std::vector<uint32_t> prof_deps(sigma_star.size(), obs::kProfileNoDep);
  if (obs::Profiler::Enabled()) {
    for (size_t si = 0; si < sigma_star.size(); ++si) {
      prof_deps[si] = run.RegisterDep(
          TgdToString(sigma_star[si], *m.source, *m.target),
          static_cast<uint32_t>(sigma_star[si].lhs.size()));
    }
  }
  for (size_t si = 0; si < sigma_star.size(); ++si) {
    const Tgd& sigma = sigma_star[si];
    obs::ProfiledDepScope prof_scope(prof_deps[si],
                                     obs::ProfilePhase::kFire);
    {
      Status tick = run.Tick();
      if (!tick.ok()) return trip(std::move(tick));
    }
    obs::CounterAdd(kSigmaStar);
    std::vector<Value> x = sigma.FrontierVariables();

    DisjunctiveTgd dep;
    dep.lhs = sigma.rhs;
    if (options.include_constant_predicates) {
      dep.constant_vars = x;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      for (size_t j = i + 1; j < x.size(); ++j) {
        dep.inequalities.emplace_back(x[i], x[j]);
      }
    }

    // The MinGen stats carry the generator event ids that attribute this
    // rule in the journal.
    MinGenStats mingen_stats;
    MinGenOptions mingen_options;
    mingen_options.stats = &mingen_stats;
    mingen_options.budget = options.budget;
    Result<std::vector<Conjunction>> found =
        MinGen(m, sigma.rhs, x, mingen_options);
    if (!found.ok()) {
      Status status = found.status();
      // MinGen already journaled its own trip; `trip` here hands the
      // caller the rules derived before the search ran out.
      if (status.code() == StatusCode::kResourceExhausted ||
          status.code() == StatusCode::kCancelled) {
        return trip(std::move(status));
      }
      return status;
    }
    std::vector<Conjunction> generators = std::move(found).value();
    if (generators.empty()) {
      // The lhs of sigma is itself a generator, so MinGen cannot come back
      // empty (see the remark after the algorithm in Section 4).
      return Status::Internal("MinGen returned no generators");
    }

    if (options.prune_subsumed_disjuncts) {
      generators = PruneSubsumedConjunctions(generators, x, m.source);
    }

    dep.disjuncts = std::move(generators);
    PrettifyFreshVariables(&dep);
    if (std::find(reverse.deps.begin(), reverse.deps.end(), dep) ==
        reverse.deps.end()) {
      if (journal.active()) {
        // Attribute the emitted rule to the sigma-star member it inverts,
        // parented on the MinGen generator events that supplied its
        // disjuncts (Theorem 4.1 construction).
        std::string x_text;
        for (const Value& v : x) {
          if (!x_text.empty()) x_text += ", ";
          x_text += v.ToString();
        }
        journal.RecordRule(DisjunctiveTgdToString(dep, *m.target, *m.source),
                           TgdToString(sigma, *m.source, *m.target),
                           static_cast<int32_t>(si), x_text,
                           mingen_stats.generator_event_ids);
      }
      reverse.deps.push_back(std::move(dep));
      ++emitted;
      obs::CounterAdd(kRules);
      obs::ProfileRecordOutcomes(prof_deps[si], 0, 1, 0);
    } else {
      obs::ProfileRecordOutcomes(prof_deps[si], 0, 0, 1);
    }
  }
  return reverse;
}

ReverseMapping MustQuasiInverse(const SchemaMapping& m,
                                const QuasiInverseOptions& options) {
  Result<ReverseMapping> reverse = QuasiInverse(m, options);
  if (!reverse.ok()) {
    std::fprintf(stderr, "MustQuasiInverse: %s\n",
                 reverse.status().ToString().c_str());
    std::abort();
  }
  return std::move(reverse).value();
}

}  // namespace qimap
