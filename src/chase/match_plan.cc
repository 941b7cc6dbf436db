#include "chase/match_plan.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace qimap {

namespace {

// Expected posting-list length for a column probed with a value that is
// only known at run time: rows / distinct, rounded up.
size_t DistinctEstimate(const Instance& inst, RelationId rel, uint32_t col,
                        size_t rows) {
  uint32_t distinct = inst.ColumnDistinct(rel, col);
  return distinct > 0 ? (rows + distinct - 1) / distinct : rows;
}

// Greedy join order over `body`, written to `order`: at each step pick the
// atom with the fewest unbound movable arguments, breaking ties by the
// smaller statistics extent, then by the lower original index. An atom's
// extent is the smallest estimate over its determined columns: the exact
// posting length for a literal, rows/distinct for a variable bound by the
// partial assignment or an earlier atom (plans read only the partial
// assignment's keys, never its values). An atom whose extent is provably 0
// is picked immediately so the empty search prunes in O(1).
//
// It allocates nothing once `order` and the thread-local buffers have grown
// to the body's size.
void GreedyOrder(const Conjunction& body, const Instance& inst,
                 const Assignment& partial, const HomSearchOptions& options,
                 std::vector<size_t>* order) {
  thread_local std::vector<uint8_t> used;
  // Movable values bound by the atoms picked so far, kept sorted; the
  // partial assignment's keys are bound from the start.
  thread_local std::vector<Value> picked;
  used.assign(body.size(), 0);
  picked.clear();
  auto is_bound = [&](const Value& v) {
    return partial.contains(v) ||
           std::binary_search(picked.begin(), picked.end(), v);
  };
  order->clear();
  for (size_t step = 0; step < body.size(); ++step) {
    size_t best = body.size();
    size_t best_unbound = SIZE_MAX;
    size_t best_extent = SIZE_MAX;
    for (size_t i = 0; i < body.size(); ++i) {
      if (used[i]) continue;
      size_t unbound = 0;
      for (const Value& v : body[i].args) {
        if (IsMovableValue(v, options) && !is_bound(v)) ++unbound;
      }
      const size_t rows = inst.NumRows(body[i].relation);
      size_t extent = rows;
      for (size_t a = 0; a < body[i].args.size(); ++a) {
        const Value& arg = body[i].args[a];
        size_t estimate = SIZE_MAX;
        if (!IsMovableValue(arg, options)) {
          estimate =
              inst.RowsWith(body[i].relation, static_cast<uint32_t>(a), arg)
                  .size();
        } else if (is_bound(arg)) {
          estimate =
              DistinctEstimate(inst, body[i].relation,
                               static_cast<uint32_t>(a), rows);
        }
        extent = std::min(extent, estimate);
      }
      if (extent == 0) {
        // Provably empty: any candidate loop here visits nothing, so the
        // whole search is empty. Front-load it and stop scanning.
        best = i;
        break;
      }
      if (unbound < best_unbound ||
          (unbound == best_unbound && extent < best_extent)) {
        best = i;
        best_unbound = unbound;
        best_extent = extent;
      }
    }
    used[best] = 1;
    order->push_back(best);
    for (const Value& v : body[best].args) {
      if (!IsMovableValue(v, options) || is_bound(v)) continue;
      picked.insert(std::lower_bound(picked.begin(), picked.end(), v), v);
    }
  }
}

// True when the plan's shape cannot depend on index statistics: a body of
// at most one atom, or one where every argument of every atom is
// determined before any step runs (a literal, or a key of the partial
// assignment). The latter compiles to a pure point-lookup chain in
// written order.
bool StatsFree(const Conjunction& body, const Assignment& partial,
               const HomSearchOptions& options) {
  if (body.size() <= 1) return true;
  for (const Atom& atom : body) {
    for (const Value& arg : atom.args) {
      if (IsMovableValue(arg, options) && !partial.contains(arg)) {
        return false;
      }
    }
  }
  return true;
}

// The register holding `v`, or reg_vars.size() when none does. A linear
// scan: bodies are small, and GreedyOrder is already quadratic in them.
size_t RegisterOf(const std::vector<Value>& reg_vars, const Value& v) {
  return static_cast<size_t>(std::find(reg_vars.begin(), reg_vars.end(), v) -
                             reg_vars.begin());
}

// Fills `plan`, which holds one step per atom of `body`, for the join
// order `plan->perm`; everything but the order is a pure function of the
// body, options and partial key set. Reuses the capacity of every vector
// it fills.
void BuildPlan(const Conjunction& body, const Assignment& partial,
               const HomSearchOptions& options, MatchPlan* plan) {
  const bool has_conditions =
      !options.must_be_constant.empty() || !options.inequalities.empty();
  std::vector<Value>& reg_vars = plan->reg_vars;
  reg_vars.clear();
  plan->preload_regs.clear();

  // First pass: assign dense register slots at first occurrence in
  // execution order and resolve every argument's kind.
  for (size_t s = 0; s < plan->perm.size(); ++s) {
    const Atom& atom = body[plan->perm[s]];
    PlanStep& step = plan->steps[s];
    step.relation = atom.relation;
    step.args.resize(atom.args.size());
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Value& arg = atom.args[i];
      PlanArg& pa = step.args[i];
      pa = PlanArg{};
      if (!IsMovableValue(arg, options)) {
        pa.kind = PlanArgKind::kLiteral;
        pa.literal = arg;
        continue;
      }
      const size_t reg = RegisterOf(reg_vars, arg);
      pa.reg = static_cast<uint16_t>(reg);
      if (reg < reg_vars.size()) {
        pa.kind = PlanArgKind::kCheck;  // bound at its first occurrence
        continue;
      }
      reg_vars.push_back(arg);
      if (partial.contains(arg)) {
        plan->preload_regs.push_back(pa.reg);
        pa.kind = PlanArgKind::kCheck;
      } else {
        pa.kind = PlanArgKind::kBind;
      }
    }
  }

  // Second pass: decide each step's access mode from which arguments are
  // determined *before* the step runs (literals, preloaded registers, and
  // registers bound by earlier steps — not same-step binds), and compile
  // the eager side-condition checks onto kBind arguments. Registers are
  // dense in first-occurrence order, so the ones earlier steps bound are
  // exactly those below `earlier_regs`.
  size_t earlier_regs = 0;
  for (PlanStep& step : plan->steps) {
    auto bound_before = [&](size_t reg) {
      return reg < earlier_regs || partial.contains(reg_vars[reg]);
    };
    step.probe_cols.clear();
    for (size_t i = 0; i < step.args.size(); ++i) {
      const PlanArg& arg = step.args[i];
      if (arg.kind == PlanArgKind::kLiteral ||
          (arg.kind == PlanArgKind::kCheck && bound_before(arg.reg))) {
        step.probe_cols.push_back(static_cast<uint16_t>(i));
      }
    }
    if (!step.args.empty() && step.probe_cols.size() == step.args.size()) {
      step.mode = PlanStepMode::kPointLookup;
      step.probe_cols.clear();
    } else if (!step.probe_cols.empty()) {
      step.mode = PlanStepMode::kProbe;
    } else {
      step.mode = PlanStepMode::kScan;
    }
    step.bind_checks.resize(has_conditions ? step.args.size() : 0);
    for (size_t i = 0; i < step.bind_checks.size(); ++i) {
      PlanBindChecks& checks = step.bind_checks[i];
      checks.must_be_constant = false;
      checks.neq_literals.clear();
      checks.neq_regs.clear();
      if (step.args[i].kind != PlanArgKind::kBind) continue;
      const Value& var = reg_vars[step.args[i].reg];
      for (const Value& v : options.must_be_constant) {
        if (v == var) checks.must_be_constant = true;
      }
      for (const auto& [a, b] : options.inequalities) {
        const Value* other = nullptr;
        if (a == var) {
          other = &b;
        } else if (b == var) {
          other = &a;
        } else {
          continue;
        }
        if (!IsMovableValue(*other, options)) {
          checks.neq_literals.push_back(*other);
          continue;
        }
        const size_t reg = RegisterOf(reg_vars, *other);
        if (reg < reg_vars.size() && bound_before(reg)) {
          checks.neq_regs.push_back(static_cast<uint16_t>(reg));
        }
        // Partner bound later (or absent): the final check covers it.
      }
    }
    // Binds of this step become visible to later steps.
    for (const PlanArg& arg : step.args) {
      if (arg.kind != PlanArgKind::kLiteral) {
        earlier_regs = std::max<size_t>(earlier_regs, arg.reg + 1u);
      }
    }
  }
}

// Compiles `body` into `plan`: the written join order for stats-free
// bodies, the greedy order otherwise. Steps a shorter body leaves over
// wait in `spare_steps` with their vectors for a later, longer one.
void CompileInto(const Conjunction& body, const Instance& instance,
                 const Assignment& partial, const HomSearchOptions& options,
                 MatchPlan* plan, std::vector<PlanStep>* spare_steps) {
  plan->stats_free = StatsFree(body, partial, options);
  if (plan->stats_free) {
    plan->perm.resize(body.size());
    std::iota(plan->perm.begin(), plan->perm.end(), size_t{0});
  } else {
    GreedyOrder(body, instance, partial, options, &plan->perm);
  }
  std::vector<PlanStep>& steps = plan->steps;
  while (steps.size() > body.size()) {
    spare_steps->push_back(std::move(steps.back()));
    steps.pop_back();
  }
  while (steps.size() < body.size()) {
    if (spare_steps->empty()) {
      steps.emplace_back();
    } else {
      steps.push_back(std::move(spare_steps->back()));
      spare_steps->pop_back();
    }
  }
  BuildPlan(body, partial, options, plan);
}

}  // namespace

// ---------------------------------------------------------------------
// Scratch slots.
//
// Every indexed search compiles its plan afresh into the calling thread's
// slot for the search's nesting depth: a search's callback may start
// another search (Satisfies, SatisfiesDisjunctive, the chase's
// collect->fire), which needs its own plan while the outer one still
// runs. A HeldSearch keeps its slot for a whole loop; searches started
// meanwhile claim deeper ones. A slot's vectors keep their capacity from
// search to search, so a warmed-up search allocates nothing. Each slot is
// a separate heap object, so a nested search that grows the stack never
// moves the plan an outer search is executing.
// ---------------------------------------------------------------------

struct ScratchSlot {
  MatchPlan plan;
  /// Steps a shorter body left over, vectors intact, for a longer one.
  std::vector<PlanStep> spare_steps;
  /// The register frame and per-step telemetry of the running search.
  std::vector<Value> regs;
  std::vector<obs::ProfileAtomCounters> step_counts;
};

namespace {

thread_local std::vector<std::unique_ptr<ScratchSlot>> t_slots;
thread_local size_t t_depth = 0;  // slots claimed on this thread

// Claims the calling thread's slot at the current nesting depth; claims
// are released in reverse order.
ScratchSlot* ClaimSlot() {
  if (t_depth == t_slots.size()) {
    t_slots.push_back(std::make_unique<ScratchSlot>());
  }
  return t_slots[t_depth++].get();
}

void ReleaseSlot() { --t_depth; }

// Holds a slot for one search.
class ScratchClaim {
 public:
  ScratchClaim() : slot_(ClaimSlot()) {}
  ~ScratchClaim() { ReleaseSlot(); }
  ScratchClaim(const ScratchClaim&) = delete;
  ScratchClaim& operator=(const ScratchClaim&) = delete;

  ScratchSlot& slot() const { return *slot_; }

 private:
  ScratchSlot* slot_;
};

// ---------------------------------------------------------------------
// Plan execution: a recursive matcher over the flat register frame. No
// Assignment is built until a full match is emitted, and none at all for
// an existence-only search (`fn` null); failed candidates leave registers
// dirty by design (a register is only read by steps that run strictly
// after the step that bound it succeeded).
// ---------------------------------------------------------------------

// Runs the plan compiled into `slot`, in the slot's register frame and
// per-step counters.
class PlanRunner {
 public:
  PlanRunner(ScratchSlot& slot, const Instance& inst,
             const Assignment& partial, const HomSearchOptions& options,
             const std::function<bool(const Assignment&)>* fn)
      : plan_(slot.plan),
        inst_(inst),
        partial_(partial),
        options_(options),
        fn_(fn),
        regs_(slot.regs),
        step_counts_(slot.step_counts) {
    regs_.resize(plan_.reg_vars.size());
    step_counts_.assign(plan_.steps.size(), obs::ProfileAtomCounters{});
  }

  size_t Run() {
    // The plan was compiled for this partial, so every preload is a key.
    for (uint16_t r : plan_.preload_regs) {
      regs_[r] = partial_.at(plan_.reg_vars[r]);
    }
    Step(0);
    return count_;
  }

  size_t backtracks() const {
    size_t total = 0;
    for (const auto& s : step_counts_) total += s.unify_fails;
    return total;
  }
  size_t index_probes() const {
    size_t total = 0;
    for (const auto& s : step_counts_) total += s.probes;
    return total;
  }
  size_t index_rows() const {
    size_t total = 0;
    for (const auto& s : step_counts_) total += s.probe_rows;
    return total;
  }
  size_t scan_rows() const {
    size_t total = 0;
    for (const auto& s : step_counts_) total += s.scan_rows;
    return total;
  }
  size_t index_hits() const { return index_hits_; }
  size_t point_lookups() const { return point_lookups_; }

 private:
  const Value& ArgValue(const PlanArg& arg) const {
    return arg.kind == PlanArgKind::kLiteral ? arg.literal : regs_[arg.reg];
  }

  void Step(size_t s) {
    if (stop_) return;
    if (s == plan_.steps.size()) {
      Emit();
      return;
    }
    const PlanStep& step = plan_.steps[s];
    switch (step.mode) {
      case PlanStepMode::kPointLookup: {
        ++point_lookups_;
        ++step_counts_[s].probes;
        // ContainsFact calls back into nothing, so one probe buffer per
        // thread serves every point lookup without allocating.
        thread_local Tuple probe;
        probe.clear();
        for (const PlanArg& arg : step.args) probe.push_back(ArgValue(arg));
        if (!inst_.ContainsFact(step.relation, probe)) return;
        ++index_hits_;
        ++step_counts_[s].probe_rows;
        Step(s + 1);
        return;
      }
      case PlanStepMode::kProbe: {
        Instance::PostingList candidates;
        for (uint16_t col : step.probe_cols) {
          ++step_counts_[s].probes;
          Instance::PostingList ids =
              inst_.RowsWith(step.relation, col, ArgValue(step.args[col]));
          if (ids.empty()) return;  // no row carries this column value
          ++index_hits_;
          if (candidates.empty() || ids.size() < candidates.size()) {
            candidates = ids;
          }
        }
        for (uint32_t row : candidates) {
          ++step_counts_[s].probe_rows;
          if (UnifyRow(step, s, row)) {
            Step(s + 1);
          } else {
            ++step_counts_[s].unify_fails;
          }
          if (stop_) return;
        }
        return;
      }
      case PlanStepMode::kScan: {
        const size_t rows = inst_.NumRows(step.relation);
        for (size_t row = 0; row < rows; ++row) {
          ++step_counts_[s].scan_rows;
          if (UnifyRow(step, s, static_cast<uint32_t>(row))) {
            Step(s + 1);
          } else {
            ++step_counts_[s].unify_fails;
          }
          if (stop_) return;
        }
        return;
      }
    }
  }

  bool UnifyRow(const PlanStep& step, size_t s, uint32_t row) {
    (void)s;
    const bool checked = !step.bind_checks.empty();
    for (size_t i = 0; i < step.args.size(); ++i) {
      const PlanArg& arg = step.args[i];
      const Value& cell =
          inst_.at(step.relation, row, static_cast<uint32_t>(i));
      switch (arg.kind) {
        case PlanArgKind::kLiteral:
          if (cell != arg.literal) return false;
          break;
        case PlanArgKind::kCheck:
          if (cell != regs_[arg.reg]) return false;
          break;
        case PlanArgKind::kBind:
          if (checked && !BindOk(step.bind_checks[i], cell)) return false;
          regs_[arg.reg] = cell;
          break;
      }
    }
    return true;
  }

  // Eager side-condition rejection at bind time.
  bool BindOk(const PlanBindChecks& checks, const Value& cell) const {
    if (checks.must_be_constant && !cell.IsConstant()) return false;
    for (const Value& other : checks.neq_literals) {
      if (cell == other) return false;
    }
    for (uint16_t r : checks.neq_regs) {
      if (cell == regs_[r]) return false;
    }
    return true;
  }

  // What the emitted assignment would map `v` to: its register, else its
  // partial binding, else `v` itself.
  Value Lookup(const Value& v) const {
    for (size_t r = 0; r < regs_.size(); ++r) {
      if (plan_.reg_vars[r] == v) return regs_[r];
    }
    return Resolve(partial_, v);
  }

  void Emit() {
    // Final re-check of every side condition on the complete match
    // (covers partners that were unbound at bind time and conditions over
    // non-movable values).
    for (const Value& v : options_.must_be_constant) {
      if (!Lookup(v).IsConstant()) return;
    }
    for (const auto& [a, b] : options_.inequalities) {
      if (Lookup(a) == Lookup(b)) return;
    }
    ++count_;
    if (fn_ == nullptr) {  // existence only: the first match decides
      stop_ = true;
      return;
    }
    // Built in bulk: the partial's pairs plus every register it does not
    // already carry (preloaded registers hold the partial's own values).
    Assignment out = partial_;
    out.reserve(partial_.size() + regs_.size());
    for (size_t r = 0; r < regs_.size(); ++r) {
      if (!partial_.contains(plan_.reg_vars[r])) {
        out.AppendUnsorted(plan_.reg_vars[r], regs_[r]);
      }
    }
    out.SortByKey();
    if (!(*fn_)(out)) stop_ = true;
  }

  const MatchPlan& plan_;
  const Instance& inst_;
  const Assignment& partial_;
  const HomSearchOptions& options_;
  const std::function<bool(const Assignment&)>* fn_;
  std::vector<Value>& regs_;
  std::vector<obs::ProfileAtomCounters>& step_counts_;
  size_t index_hits_ = 0;
  size_t point_lookups_ = 0;
  size_t count_ = 0;
  bool stop_ = false;
};

// Runs the plan compiled into `slot` and adds the search's counts to
// `tally`; attributes per-atom profiler telemetry through the plan's perm.
size_t RunCompiled(const Conjunction& body, ScratchSlot& slot,
                   const Instance& target, const Assignment& partial,
                   const HomSearchOptions& options,
                   const std::function<bool(const Assignment&)>* fn,
                   SearchTally* tally) {
  PlanRunner runner(slot, target, partial, options, fn);
  const size_t count = runner.Run();
  ++tally->searches;
  tally->matches += count;
  tally->backtracks += runner.backtracks();
  tally->index_lookups += runner.index_probes();
  tally->index_hits += runner.index_hits();
  tally->index_rows += runner.index_rows();
  tally->scan_rows += runner.scan_rows();
  tally->point_lookups += runner.point_lookups();
  if (obs::ProfileSearchActive()) {
    // Map per-step telemetry back to the body's positions as written.
    std::vector<obs::ProfileAtomCounters> atoms(body.size());
    for (size_t s = 0; s < slot.plan.perm.size(); ++s) {
      atoms[slot.plan.perm[s]] = slot.step_counts[s];
    }
    obs::ProfileRecordSearch(count, runner.backtracks(), atoms);
  }
  return count;
}

}  // namespace

const char* PlanStepModeName(PlanStepMode mode) {
  switch (mode) {
    case PlanStepMode::kPointLookup:
      return "point_lookup";
    case PlanStepMode::kProbe:
      return "probe";
    case PlanStepMode::kScan:
      return "scan";
  }
  return "unknown";
}

MatchPlan CompileMatchPlan(const Conjunction& body, const Instance& instance,
                           const Assignment& partial,
                           const HomSearchOptions& options) {
  MatchPlan plan;
  std::vector<PlanStep> spare_steps;
  CompileInto(body, instance, partial, options, &plan, &spare_steps);
  return plan;
}

void ClearMatchPlanCache() {}

void SearchTally::Flush() {
  if (searches == 0) return;
  static const obs::MetricId kSearches =
      obs::RegisterCounter("hom.searches");
  static const obs::MetricId kMatches = obs::RegisterCounter("hom.matches");
  static const obs::MetricId kBacktracks =
      obs::RegisterCounter("hom.backtracks");
  static const obs::MetricId kIndexLookups =
      obs::RegisterCounter("chase.index.lookups");
  static const obs::MetricId kIndexHits =
      obs::RegisterCounter("chase.index.hits");
  static const obs::MetricId kIndexRows =
      obs::RegisterCounter("chase.index.rows");
  static const obs::MetricId kScanRows =
      obs::RegisterCounter("chase.index.scan_rows");
  static const obs::MetricId kPointLookups =
      obs::RegisterCounter("chase.index.point_lookups");
  obs::CounterAdd(kSearches, searches);
  obs::CounterAdd(kMatches, matches);
  obs::CounterAdd(kBacktracks, backtracks);
  obs::CounterAdd(kIndexLookups, index_lookups);
  obs::CounterAdd(kIndexHits, index_hits);
  obs::CounterAdd(kIndexRows, index_rows);
  obs::CounterAdd(kScanRows, scan_rows);
  obs::CounterAdd(kPointLookups, point_lookups);
  *this = SearchTally{};
}

size_t RunMatchPlan(const Conjunction& body, const Instance& target,
                    const Assignment& partial, const HomSearchOptions& options,
                    const std::function<bool(const Assignment&)>* fn) {
  ScratchClaim claim;
  ScratchSlot& slot = claim.slot();
  CompileInto(body, target, partial, options, &slot.plan, &slot.spare_steps);
  SearchTally tally;
  const size_t count =
      RunCompiled(body, slot, target, partial, options, fn, &tally);
  tally.Flush();
  return count;
}

HeldSearch::HeldSearch(const Conjunction& head,
                       const HomSearchOptions& options, SearchTally* tally)
    : head_(head), options_(options), tally_(tally), slot_(ClaimSlot()) {}

HeldSearch::~HeldSearch() { ReleaseSlot(); }

bool HeldSearch::Exists(const Instance& target, const Assignment& partial) {
  if (!options_.use_index || head_.empty()) {
    return HasHomomorphism(head_, target, partial, options_);
  }
  if (!compiled_ || !slot_->plan.stats_free) {
    CompileInto(head_, target, partial, options_, &slot_->plan,
                &slot_->spare_steps);
    compiled_ = true;
  }
  return RunCompiled(head_, *slot_, target, partial, options_, nullptr,
                     tally_) > 0;
}

std::string MatchPlan::ToText(const Schema& schema) const {
  std::string out;
  for (size_t s = 0; s < steps.size(); ++s) {
    const PlanStep& step = steps[s];
    out += "  step " + std::to_string(s) + ": atom " +
           std::to_string(perm[s]) + " " +
           std::string(schema.relation(step.relation).name) + "/" +
           std::to_string(step.args.size()) + " " +
           PlanStepModeName(step.mode);
    if (step.mode == PlanStepMode::kProbe) {
      out += " cols[";
      for (size_t i = 0; i < step.probe_cols.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(step.probe_cols[i]);
      }
      out += "]";
    }
    std::string binds;
    std::string checks;
    for (size_t i = 0; i < step.args.size(); ++i) {
      const PlanArg& arg = step.args[i];
      if (arg.kind == PlanArgKind::kBind) {
        if (!binds.empty()) binds += ",";
        binds += reg_vars[arg.reg].ToString() + "=r" +
                 std::to_string(arg.reg);
      } else if (arg.kind == PlanArgKind::kCheck) {
        if (!checks.empty()) checks += ",";
        checks += "r" + std::to_string(arg.reg);
      }
    }
    if (!binds.empty()) out += " bind{" + binds + "}";
    if (!checks.empty()) out += " check{" + checks + "}";
    out += "\n";
  }
  out += "  registers " + std::to_string(reg_vars.size()) +
         (stats_free ? ", stats-free" : "") + "\n";
  return out;
}

std::string MatchPlan::ToJson(const Schema& schema) const {
  auto quote = [](const std::string& s) {
    std::string out;
    obs::AppendJsonString(&out, s);
    return out;
  };
  std::string out = "{\"registers\":[";
  for (size_t r = 0; r < reg_vars.size(); ++r) {
    if (r > 0) out += ",";
    out += quote(reg_vars[r].ToString());
  }
  out += "],\"stats_free\":";
  out += stats_free ? "true" : "false";
  out += ",\"order\":[";
  for (size_t s = 0; s < perm.size(); ++s) {
    if (s > 0) out += ",";
    out += std::to_string(perm[s]);
  }
  out += "],\"steps\":[";
  for (size_t s = 0; s < steps.size(); ++s) {
    const PlanStep& step = steps[s];
    if (s > 0) out += ",";
    out += "{\"atom\":" + std::to_string(perm[s]);
    out += ",\"relation\":" +
           quote(std::string(schema.relation(step.relation).name));
    out += ",\"mode\":" + quote(PlanStepModeName(step.mode));
    out += ",\"probe_cols\":[";
    for (size_t i = 0; i < step.probe_cols.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(step.probe_cols[i]);
    }
    out += "],\"args\":[";
    for (size_t i = 0; i < step.args.size(); ++i) {
      const PlanArg& arg = step.args[i];
      if (i > 0) out += ",";
      switch (arg.kind) {
        case PlanArgKind::kLiteral:
          out += "{\"literal\":" + quote(arg.literal.ToString()) + "}";
          break;
        case PlanArgKind::kCheck:
          out += "{\"check\":" + std::to_string(arg.reg) + "}";
          break;
        case PlanArgKind::kBind:
          out += "{\"bind\":" + std::to_string(arg.reg) + "}";
          break;
      }
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace qimap
