#include "core/lav_quasi_inverse.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "base/budget.h"
#include "chase/chase.h"
#include "core/inverse.h"
#include "obs/metrics.h"
#include "obs/pipeline_run.h"
#include "obs/profiler.h"
#include "relational/atom.h"

namespace qimap {
namespace {

constexpr obs::PipelineSpec kRun = {"lav_quasi_inverse/run",
                                    "lav_quasi_inverse", "LavQuasiInverse"};

}  // namespace

Result<ReverseMapping> LavQuasiInverse(
    const SchemaMapping& m, const LavQuasiInverseOptions& options) {
  static const obs::MetricId kRuns = obs::RegisterCounter("lavqinv.runs");
  static const obs::MetricId kPrimes =
      obs::RegisterCounter("lavqinv.prime_instances");
  static const obs::MetricId kRules =
      obs::RegisterCounter("lavqinv.rules_emitted");
  ReverseMapping reverse;
  reverse.from = m.target;
  reverse.to = m.source;
  // Heartbeats: one step per prime instance inverted; the inner chases
  // emit their own runs. They sample `emitted`, not `reverse`, which is
  // moved out before the final one.
  size_t emitted = 0;
  obs::PipelineRun run(kRun, 0, options.budget, [&emitted]() {
    obs::ProgressSample sample;
    sample.fired = emitted;
    return sample;
  });
  auto& journal = run.journal();
  obs::CounterAdd(kRuns);

  if (!m.IsLav()) {
    return Status::FailedPrecondition(
        "LavQuasiInverse requires a LAV schema mapping");
  }

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
  ChaseOptions chase_options;
  chase_options.budget = options.budget;

  // One dependency per prime instance, as in algorithm Inverse (Section 5)
  // but without the constant-propagation requirement: variables of the
  // prime atom that the chase does not propagate simply remain
  // existentially quantified in the conclusion, and no Constant(..) or
  // inequality conjunct mentions them. For LAV mappings the chase of a
  // prime atom is the conjunction of all right-hand sides its relation
  // triggers, which recovers the atom exactly up to ~M (Theorem 4.7).
  for (RelationId r = 0; r < m.source->size(); ++r) {
    for (const Atom& alpha : PrimeAtoms(*m.source, r)) {
      // Profiling: one entry per prime instance; the chase of its
      // canonical instance attributes its own dependencies on top.
      uint32_t prof_dep = obs::kProfileNoDep;
      if (obs::Profiler::Enabled()) {
        prof_dep = run.RegisterDep(AtomToString(alpha, *m.source), 1);
      }
      obs::ProfiledDepScope prof_scope(prof_dep,
                                       obs::ProfilePhase::kFire);
      {
        Status tick = run.Tick();
        if (!tick.ok()) return trip(std::move(tick));
      }
      obs::CounterAdd(kPrimes);
      Instance canonical = CanonicalInstance({alpha}, m.source);
      Result<Instance> prime_chase = Chase(canonical, m, chase_options);
      if (!prime_chase.ok()) {
        // The inner chase journals and reports its own trip; `trip` then
        // hands the caller the rules derived before the budget ran out.
        Status status = prime_chase.status();
        if (run.exhausted() ||
            status.code() == StatusCode::kResourceExhausted ||
            status.code() == StatusCode::kCancelled) {
          return trip(std::move(status));
        }
        return status;
      }
      Instance chased = std::move(prime_chase).value();
      if (chased.Empty()) {
        // The relation is invisible to the target; nothing can be
        // recovered for it (and no dependency is emitted).
        continue;
      }

      DisjunctiveTgd dep;
      std::map<Value, Value> null_to_var;
      std::set<Value> propagated;
      for (const Fact& fact : chased.Facts()) {
        Atom atom;
        atom.relation = fact.relation;
        for (const Value& v : fact.tuple) {
          if (v.IsNull()) {
            auto it = null_to_var.find(v);
            if (it == null_to_var.end()) {
              it = null_to_var
                       .emplace(v, Value::MakeVariable(
                                       "y" + std::to_string(
                                                 null_to_var.size() + 1)))
                       .first;
            }
            atom.args.push_back(it->second);
          } else {
            if (v.IsVariable()) propagated.insert(v);
            atom.args.push_back(v);
          }
        }
        dep.lhs.push_back(std::move(atom));
      }

      // Guards only over the propagated variables of alpha.
      std::vector<Value> guarded;
      for (const Value& v : alpha.args) {
        if (propagated.count(v) > 0 &&
            std::find(guarded.begin(), guarded.end(), v) == guarded.end()) {
          guarded.push_back(v);
        }
      }
      dep.constant_vars = guarded;
      for (size_t i = 0; i < guarded.size(); ++i) {
        for (size_t j = i + 1; j < guarded.size(); ++j) {
          dep.inequalities.emplace_back(guarded[i], guarded[j]);
        }
      }
      dep.disjuncts.push_back(Conjunction{alpha});
      if (std::find(reverse.deps.begin(), reverse.deps.end(), dep) ==
          reverse.deps.end()) {
        if (journal.active()) {
          // Attribute the rule to the prime instance whose chase built
          // its lhs (Theorem 4.7 construction).
          std::string alpha_text = AtomToString(alpha, *m.source);
          uint64_t prime_id = journal.RecordBaseFact(alpha_text);
          journal.RecordRule(
              DisjunctiveTgdToString(dep, *m.target, *m.source), alpha_text,
              static_cast<int32_t>(reverse.deps.size()),
              ConjunctionToString(dep.lhs, *m.target), {prime_id});
        }
        reverse.deps.push_back(std::move(dep));
        ++emitted;
        obs::CounterAdd(kRules);
        obs::ProfileRecordOutcomes(prof_dep, 1, 1, 0);
      } else {
        obs::ProfileRecordOutcomes(prof_dep, 1, 0, 1);
      }
    }
  }
  return reverse;
}

ReverseMapping MustLavQuasiInverse(const SchemaMapping& m) {
  Result<ReverseMapping> reverse = LavQuasiInverse(m);
  if (!reverse.ok()) {
    std::fprintf(stderr, "MustLavQuasiInverse: %s\n",
                 reverse.status().ToString().c_str());
    std::abort();
  }
  return std::move(reverse).value();
}

}  // namespace qimap
