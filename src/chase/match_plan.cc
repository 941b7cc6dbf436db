#include "chase/match_plan.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <numeric>
#include <unordered_map>
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
// partial assignment or an earlier atom (plans never read partial
// *values*: they vary per search under one cached plan). An atom whose
// extent is provably 0 is picked immediately so the empty search prunes
// in O(1).
//
// This one function both compiles a plan and checks, on every cache hit
// of a statistics-dependent plan, that the cached order still holds. It
// allocates nothing once `order` and the thread-local buffers have grown to
// the body's size.
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
          const std::vector<uint32_t>* ids = inst.RowsWith(
              body[i].relation, static_cast<uint32_t>(a), arg);
          estimate = ids != nullptr ? ids->size() : 0;
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

// ---------------------------------------------------------------------
// Plan cache.
//
// One slot per structural key (body content + movability/side-condition
// bits + partial key set). The slot holds the latest compiled plan; a hit
// on a statistics-dependent plan re-runs GreedyOrder against the current
// instance and recompiles in place only when the order differs from the
// plan's `perm`. Single-slot-per-key keeps memory bounded by the number
// of distinct bodies.
//
// A lock-free thread-local front cache serves stats-free plans (the
// satisfaction-search hot path: ground rhs bodies) without touching the
// mutex. Front-cache entries are immutable shared_ptrs and stats-free
// plans are instance-independent, so they can never go stale; a global
// version bump on ClearMatchPlanCache invalidates them anyway so tests
// observe deterministic compile counts.
//
// Both layers additionally key their validity on the metrics reset
// generation: the chase.plan.* counters land in the canonical ledger
// record, whose contract is "byte-identical for identical work since the
// last obs::ResetMetrics()". A cache outliving the counter window would
// make the second identical run report compiles=0 where the first
// reported N — history-dependent telemetry. Clearing on generation
// change makes the counters a pure function of the window; production
// processes never reset, so they keep full cross-run reuse.
// ---------------------------------------------------------------------

struct CacheEntry {
  std::shared_ptr<const MatchPlan> plan;
};

struct PlanCache {
  std::mutex mu;
  uint64_t reset_generation = 0;
  std::unordered_map<std::string, CacheEntry> slots;
};

PlanCache& GlobalCache() {
  static PlanCache* cache = new PlanCache();
  return *cache;
}

std::atomic<uint64_t> g_cache_version{1};

// Structural keys realistically number in the dozens (distinct dependency
// bodies); this cap only guards pathological generators. Clearing is
// all-or-nothing so reuse stays deterministic.
constexpr size_t kMaxCacheSlots = 4096;

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.kind()));
  AppendU32(out, v.id());
}

// Serializes everything that determines plan *shape* other than the join
// order into `*out`: body atoms, movability bits, side conditions, and the
// partial assignment's key set.
void StructuralKey(const Conjunction& body, const Assignment& partial,
                   const HomSearchOptions& options, std::string* out) {
  std::string& key = *out;
  key.clear();
  key.push_back(options.map_nulls ? 'n' : '-');
  key.push_back(options.map_variables ? 'v' : '-');
  for (const Atom& atom : body) {
    key.push_back('A');
    AppendU32(&key, atom.relation);
    for (const Value& arg : atom.args) AppendValue(&key, arg);
  }
  key.push_back('P');
  for (const auto& [k, unused] : partial) AppendValue(&key, k);
  if (!options.must_be_constant.empty()) {
    key.push_back('C');
    for (const Value& v : options.must_be_constant) AppendValue(&key, v);
  }
  if (!options.inequalities.empty()) {
    key.push_back('I');
    for (const auto& [a, b] : options.inequalities) {
      AppendValue(&key, a);
      AppendValue(&key, b);
    }
  }
}

// ---------------------------------------------------------------------
// Plan execution: a recursive matcher over the flat register frame. No
// Assignment is built until a full match is emitted, and none at all for
// an existence-only search (`fn` null); failed candidates leave registers
// dirty by design (a register is only read by steps that run strictly
// after the step that bound it succeeded).
// ---------------------------------------------------------------------

class PlanRunner {
 public:
  PlanRunner(const MatchPlan& plan, const Instance& inst,
             const Assignment& partial, const HomSearchOptions& options,
             const std::function<bool(const Assignment&)>* fn)
      : plan_(plan),
        inst_(inst),
        partial_(partial),
        options_(options),
        fn_(fn),
        regs_(plan.reg_vars.size()),
        step_counts_(plan.steps.size()) {}

  size_t Run() {
    for (uint16_t r : plan_.preload_regs) {
      auto it = partial_.find(plan_.reg_vars[r]);
      if (it == partial_.end()) return 0;  // key-set mismatch: cannot match
      regs_[r] = it->second;
    }
    Step(0);
    return count_;
  }

  const std::vector<obs::ProfileAtomCounters>& step_counts() const {
    return step_counts_;
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
        const std::vector<uint32_t>* candidates = nullptr;
        for (uint16_t col : step.probe_cols) {
          ++step_counts_[s].probes;
          const std::vector<uint32_t>* ids =
              inst_.RowsWith(step.relation, col, ArgValue(step.args[col]));
          if (ids == nullptr) return;  // no row carries this column value
          ++index_hits_;
          if (candidates == nullptr || ids->size() < candidates->size()) {
            candidates = ids;
          }
        }
        for (uint32_t row : *candidates) {
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
  std::vector<Value> regs_;
  std::vector<obs::ProfileAtomCounters> step_counts_;
  size_t index_hits_ = 0;
  size_t point_lookups_ = 0;
  size_t count_ = 0;
  bool stop_ = false;
};

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

namespace {

// Compiles the plan for `perm` (a join order over `body`); everything but
// the order is a pure function of the body, options and partial key set.
MatchPlan BuildPlan(const Conjunction& body, const Assignment& partial,
                    const HomSearchOptions& options, bool stats_free,
                    std::vector<size_t> perm) {
  MatchPlan plan;
  plan.stats_free = stats_free;
  plan.perm = std::move(perm);
  const bool has_conditions =
      !options.must_be_constant.empty() || !options.inequalities.empty();

  // First pass: assign dense register slots at first occurrence in
  // execution order and resolve every argument's kind.
  std::unordered_map<Value, uint16_t, ValueHash> reg_of;
  plan.steps.reserve(body.size());
  for (size_t s = 0; s < plan.perm.size(); ++s) {
    const Atom& atom = body[plan.perm[s]];
    PlanStep step;
    step.relation = atom.relation;
    step.args.reserve(atom.args.size());
    for (const Value& arg : atom.args) {
      PlanArg pa;
      if (!IsMovableValue(arg, options)) {
        pa.kind = PlanArgKind::kLiteral;
        pa.literal = arg;
      } else {
        auto it = reg_of.find(arg);
        if (it == reg_of.end()) {
          uint16_t reg = static_cast<uint16_t>(plan.reg_vars.size());
          reg_of.emplace(arg, reg);
          plan.reg_vars.push_back(arg);
          if (partial.contains(arg)) {
            plan.preload_regs.push_back(reg);
            pa.kind = PlanArgKind::kCheck;
          } else {
            pa.kind = PlanArgKind::kBind;
          }
          pa.reg = reg;
        } else {
          pa.kind = PlanArgKind::kCheck;  // bound at its first occurrence
          pa.reg = it->second;
        }
      }
      step.args.push_back(std::move(pa));
    }
    plan.steps.push_back(std::move(step));
  }

  // Second pass: decide each step's access mode from which arguments are
  // determined *before* the step runs (literals, preloaded registers, and
  // registers bound by earlier steps — not same-step binds), and compile
  // the eager side-condition checks onto kBind arguments.
  std::vector<bool> bound_before(plan.reg_vars.size(), false);
  for (uint16_t r : plan.preload_regs) bound_before[r] = true;
  for (PlanStep& step : plan.steps) {
    for (size_t i = 0; i < step.args.size(); ++i) {
      const PlanArg& arg = step.args[i];
      if (arg.kind == PlanArgKind::kLiteral ||
          (arg.kind == PlanArgKind::kCheck && bound_before[arg.reg])) {
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
    if (has_conditions) {
      step.bind_checks.resize(step.args.size());
      for (size_t i = 0; i < step.args.size(); ++i) {
        if (step.args[i].kind != PlanArgKind::kBind) continue;
        const Value& var = plan.reg_vars[step.args[i].reg];
        PlanBindChecks& checks = step.bind_checks[i];
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
          } else {
            auto it = reg_of.find(*other);
            if (it != reg_of.end() && bound_before[it->second]) {
              checks.neq_regs.push_back(it->second);
            }
            // Partner bound later (or absent): the final check covers it.
          }
        }
      }
    }
    // Binds of this step become visible to later steps.
    for (const PlanArg& arg : step.args) {
      if (arg.kind == PlanArgKind::kBind) bound_before[arg.reg] = true;
    }
  }
  return plan;
}

// The plan's join order: the written order for stats-free bodies, the
// greedy order otherwise.
void PlanOrder(const Conjunction& body, const Instance& instance,
               const Assignment& partial, const HomSearchOptions& options,
               bool stats_free, std::vector<size_t>* order) {
  if (!stats_free) {
    GreedyOrder(body, instance, partial, options, order);
    return;
  }
  order->resize(body.size());
  std::iota(order->begin(), order->end(), size_t{0});
}

}  // namespace

MatchPlan CompileMatchPlan(const Conjunction& body, const Instance& instance,
                           const Assignment& partial,
                           const HomSearchOptions& options) {
  const bool stats_free = StatsFree(body, partial, options);
  std::vector<size_t> order;
  PlanOrder(body, instance, partial, options, stats_free, &order);
  return BuildPlan(body, partial, options, stats_free, std::move(order));
}

std::shared_ptr<const MatchPlan> GetOrCompileMatchPlan(
    const Conjunction& body, const Instance& instance,
    const Assignment& partial, const HomSearchOptions& options) {
  static const obs::MetricId kCompiles =
      obs::RegisterCounter("chase.plan.compiles");
  static const obs::MetricId kCacheHits =
      obs::RegisterCounter("chase.plan.cache_hits");

  // Built in a per-thread buffer: a hit allocates nothing.
  thread_local std::string key;
  StructuralKey(body, partial, options, &key);
  // Stats-freeness is a function of the structural key, so every plan in
  // a slot agrees with it.
  const bool stats_free = StatsFree(body, partial, options);

  // Lock-free front cache for stats-free plans (instance-independent, so
  // never stale). Invalidated wholesale when the global cache version
  // moves.
  struct FrontCache {
    uint64_t version = 0;
    uint64_t reset_generation = 0;
    std::unordered_map<std::string, std::shared_ptr<const MatchPlan>> slots;
  };
  thread_local FrontCache front;
  const uint64_t version = g_cache_version.load(std::memory_order_acquire);
  const uint64_t reset_gen = obs::MetricsResetGeneration();
  if (front.version != version || front.reset_generation != reset_gen) {
    front.version = version;
    front.reset_generation = reset_gen;
    front.slots.clear();
  }
  if (stats_free) {
    if (auto it = front.slots.find(key); it != front.slots.end()) {
      obs::CounterAdd(kCacheHits);
      return it->second;
    }
  }

  // The order this search would compile to, computed outside the lock: a
  // cached plan with the same order is exactly the plan a fresh compile
  // would produce.
  thread_local std::vector<size_t> order;
  PlanOrder(body, instance, partial, options, stats_free, &order);

  PlanCache& cache = GlobalCache();
  std::unique_lock<std::mutex> lock(cache.mu);
  if (cache.reset_generation != reset_gen) {
    cache.reset_generation = reset_gen;
    cache.slots.clear();
    g_cache_version.fetch_add(1, std::memory_order_acq_rel);
  }
  auto it = cache.slots.find(key);
  if (it != cache.slots.end() && it->second.plan->perm == order) {
    obs::CounterAdd(kCacheHits);
    if (stats_free) front.slots.emplace(key, it->second.plan);
    return it->second.plan;
  }
  auto plan = std::make_shared<const MatchPlan>(
      BuildPlan(body, partial, options, stats_free, order));
  if (it != cache.slots.end()) {
    // The statistics reordered the join: recompile in place.
    it->second.plan = plan;
  } else {
    if (cache.slots.size() >= kMaxCacheSlots) {
      cache.slots.clear();
      g_cache_version.fetch_add(1, std::memory_order_acq_rel);
    }
    cache.slots.emplace(key, CacheEntry{plan});
  }
  if (stats_free) front.slots.emplace(key, plan);
  obs::CounterAdd(kCompiles);
  return plan;
}

void ClearMatchPlanCache() {
  PlanCache& cache = GlobalCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.slots.clear();
  g_cache_version.fetch_add(1, std::memory_order_acq_rel);
}

size_t RunMatchPlan(const Conjunction& body, const Instance& target,
                    const Assignment& partial, const HomSearchOptions& options,
                    const std::function<bool(const Assignment&)>* fn) {
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

  std::shared_ptr<const MatchPlan> plan =
      GetOrCompileMatchPlan(body, target, partial, options);
  PlanRunner runner(*plan, target, partial, options, fn);
  size_t count = runner.Run();
  obs::CounterAdd(kSearches);
  obs::CounterAdd(kMatches, count);
  obs::CounterAdd(kBacktracks, runner.backtracks());
  obs::CounterAdd(kIndexLookups, runner.index_probes());
  obs::CounterAdd(kIndexHits, runner.index_hits());
  obs::CounterAdd(kIndexRows, runner.index_rows());
  obs::CounterAdd(kScanRows, runner.scan_rows());
  obs::CounterAdd(kPointLookups, runner.point_lookups());
  if (obs::ProfileSearchActive()) {
    // Map per-step telemetry back to the body's positions as written.
    std::vector<obs::ProfileAtomCounters> atoms(body.size());
    for (size_t s = 0; s < plan->perm.size(); ++s) {
      atoms[plan->perm[s]] = runner.step_counts()[s];
    }
    obs::ProfileRecordSearch(count, runner.backtracks(), atoms);
  }
  return count;
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
