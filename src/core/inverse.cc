#include "core/inverse.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "base/budget.h"
#include "chase/chase.h"
#include "core/sigma_star.h"
#include "obs/metrics.h"
#include "obs/pipeline_run.h"
#include "obs/profiler.h"

namespace qimap {
namespace {

constexpr obs::PipelineSpec kRun = {"inverse/run", "inverse", "Inverse"};

// The all-distinct prime atom R(x1, ..., xm).
Atom DistinctPrimeAtom(const Schema& schema, RelationId r) {
  Atom atom;
  atom.relation = r;
  uint32_t arity = schema.relation(r).arity;
  for (uint32_t i = 0; i < arity; ++i) {
    atom.args.push_back(Value::MakeVariable("x" + std::to_string(i + 1)));
  }
  return atom;
}

}  // namespace

Result<bool> HasConstantPropagation(const SchemaMapping& m,
                                    Budget* budget) {
  ChaseOptions chase_options;
  chase_options.budget = budget;
  for (RelationId r = 0; r < m.source->size(); ++r) {
    Atom atom = DistinctPrimeAtom(*m.source, r);
    Instance canonical = CanonicalInstance({atom}, m.source);
    QIMAP_ASSIGN_OR_RETURN(Instance chased,
                           Chase(canonical, m, chase_options));
    std::set<Value> domain;
    for (const Value& v : chased.ActiveDomain()) domain.insert(v);
    for (const Value& v : atom.args) {
      if (domain.count(v) == 0) return false;
    }
  }
  return true;
}

std::vector<Atom> PrimeAtoms(const Schema& schema, RelationId r) {
  std::vector<Atom> out;
  uint32_t arity = schema.relation(r).arity;
  for (const std::vector<size_t>& pattern : SetPartitions(arity)) {
    Atom atom;
    atom.relation = r;
    for (size_t block : pattern) {
      atom.args.push_back(
          Value::MakeVariable("x" + std::to_string(block + 1)));
    }
    out.push_back(std::move(atom));
  }
  return out;
}

Result<ReverseMapping> InverseAlgorithm(const SchemaMapping& m,
                                        const InverseOptions& options) {
  static const obs::MetricId kRuns = obs::RegisterCounter("inv.runs");
  static const obs::MetricId kPrimes =
      obs::RegisterCounter("inv.prime_instances");
  static const obs::MetricId kRules =
      obs::RegisterCounter("inv.rules_emitted");
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
  // The inner chases journal and report their own trips; `trip` then
  // hands the caller the rules derived before the budget ran out.
  auto chase_overflow = [&run](const Status& status) {
    return run.exhausted() ||
           status.code() == StatusCode::kResourceExhausted ||
           status.code() == StatusCode::kCancelled;
  };

  // Step 1: the constant-propagation property is necessary for
  // invertibility (Proposition 5.3); without it the algorithm's
  // dependencies would be ill-formed (rhs variables missing from the lhs).
  Result<bool> propagates = HasConstantPropagation(m, options.budget);
  if (!propagates.ok()) {
    Status status = propagates.status();
    if (chase_overflow(status)) return trip(std::move(status));
    return status;
  }
  if (!*propagates) {
    return Status::FailedPrecondition(
        "mapping lacks the constant-propagation property; it has no "
        "inverse (Proposition 5.3)");
  }

  ChaseOptions chase_options;
  chase_options.budget = options.budget;

  // Steps 2-4: one full tgd per prime instance.
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
        Status status = prime_chase.status();
        if (chase_overflow(status)) return trip(std::move(status));
        return status;
      }
      Instance chased = std::move(prime_chase).value();

      // psi_alpha: the chase facts, with each null renamed to a fresh
      // variable y1, y2, ... (deterministic: sorted-fact order).
      std::map<Value, Value> null_to_var;
      DisjunctiveTgd dep;
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
            atom.args.push_back(v);
          }
        }
        dep.lhs.push_back(std::move(atom));
      }

      // Distinct variables of alpha, in order.
      std::vector<Value> distinct;
      for (const Value& v : alpha.args) {
        if (std::find(distinct.begin(), distinct.end(), v) ==
            distinct.end()) {
          distinct.push_back(v);
        }
      }
      if (options.include_constant_predicates) {
        dep.constant_vars = distinct;
      }
      for (size_t i = 0; i < distinct.size(); ++i) {
        for (size_t j = i + 1; j < distinct.size(); ++j) {
          dep.inequalities.emplace_back(distinct[i], distinct[j]);
        }
      }
      dep.disjuncts.push_back(Conjunction{alpha});
      if (journal.active()) {
        // Attribute the rule to the prime instance whose chase built its
        // lhs (the Section 5 construction, Theorem 5.4).
        std::string alpha_text = AtomToString(alpha, *m.source);
        uint64_t prime_id = journal.RecordBaseFact(alpha_text);
        journal.RecordRule(DisjunctiveTgdToString(dep, *m.target, *m.source),
                           alpha_text,
                           static_cast<int32_t>(reverse.deps.size()),
                           ConjunctionToString(dep.lhs, *m.target),
                           {prime_id});
      }
      reverse.deps.push_back(std::move(dep));
      ++emitted;
      obs::CounterAdd(kRules);
      obs::ProfileRecordOutcomes(prof_dep, 1, 1, 0);
    }
  }
  return reverse;
}

ReverseMapping MustInverseAlgorithm(const SchemaMapping& m,
                                    const InverseOptions& options) {
  Result<ReverseMapping> reverse = InverseAlgorithm(m, options);
  if (!reverse.ok()) {
    std::fprintf(stderr, "MustInverseAlgorithm: %s\n",
                 reverse.status().ToString().c_str());
    std::abort();
  }
  return std::move(reverse).value();
}

}  // namespace qimap
