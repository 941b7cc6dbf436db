// The qimap benchmark harness: one seeded workload, one client thread, a
// closed loop calling the public API directly.
//
//   perfbench --workload <invert|exchange|roundtrip|append> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Set-up (corpus generation, DSL render + parse, per-input prerequisites
// and one untimed warm-up pass) runs kSetups times; `setup_s` is the
// median. Then timed passes visit every input in the same order until
// `--seconds` are spent; an input's latency is its fastest pass. The last
// stdout line is the JSON result. `--trace 1` is a separate run that
// alternates untraced and traced passes and reports the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "chase/match_plan.h"
#include "chase/solution_cache.h"
#include "obs/metrics.h"
#include "relational/hom_cache.h"
#include "span_trace.h"
#include "stats.h"
#include "workloads.h"

namespace qimap::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;           // set-ups per untraced run
constexpr size_t kMinPasses = 3;     // timed passes (per kind) at least
constexpr size_t kMaxPasses = 400;   // bounds the traced run's span log

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               problem.c_str());
  std::exit(2);
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0';
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &args.seed)) Usage("bad --seed " + value);
      have[1] = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0) {
        Usage("bad --seconds " + value);
      }
      args.seconds = static_cast<double>(number);
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      args.trace = value == "1";
      have[3] = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) Usage("missing flag");
  return args;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

CounterMap Counters() { return obs::SnapshotMetrics().counters; }

// One CLI invocation's worth of process state: every memo the pipelines
// consult, plus the metrics window the plan cache keys on.
void ClearCaches() {
  SolutionCacheClear();
  HomCacheClear();
  ClearMatchPlanCache();
  obs::ResetMetrics();
}

// Drops counters whose names start with one of `prefixes`.
CounterMap Without(const CounterMap& counters,
                   const std::vector<std::string>& prefixes) {
  CounterMap kept;
  for (const auto& [name, value] : counters) {
    bool omitted = std::any_of(
        prefixes.begin(), prefixes.end(),
        [&](const std::string& p) { return name.rfind(p, 0) == 0; });
    if (!omitted) kept[name] = value;
  }
  return kept;
}

void WarmUp(Workload& w) {
  w.BeginPass();
  if (w.session()) ClearCaches();
  for (size_t i = 0; i < w.size(); ++i) {
    if (!w.session()) ClearCaches();
    w.Run(i);
  }
}

// Everything the passes measured.
struct Measurement {
  explicit Measurement(size_t inputs)
      : untraced(inputs), traced(inputs), identity(inputs), shares(inputs),
        best_spans(inputs) {}

  BestOfPasses untraced;
  BestOfPasses traced;
  PassIdentity identity;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool pass_checks_ok = true;
  size_t passes = 0;
  // Traced run only.
  SpanLog log;
  // Per input: the minimum over traced passes of each share.
  std::vector<std::map<std::string, double>> shares;
  // Per input: [begin, end) in `log` of its fastest traced op's spans.
  std::vector<std::pair<size_t, size_t>> best_spans;
  std::vector<std::string> replay_mismatches;
};

// Runs timed passes until `seconds` are spent (at least kMinPasses of
// each kind). With `trace`, odd passes are traced replays.
void Measure(Workload& w, double seconds, bool trace, Measurement* m) {
  const size_t n = w.size();
  const std::vector<std::string> omits = w.ReplayOmits();
  Clock::time_point start = Clock::now();
  double last_pass_s = 0;
  size_t untraced_passes = 0;
  for (size_t pass = 0; pass < kMaxPasses; ++pass) {
    const bool traced = trace && pass % 2 == 1;
    const size_t kinds = trace ? 2 : 1;
    if (pass >= kMinPasses * kinds && pass % kinds == 0 &&
        SecondsSince(start) + last_pass_s * kinds > seconds) {
      break;
    }
    Clock::time_point pass_start = Clock::now();
    w.BeginPass();
    if (w.session()) ClearCaches();
    for (size_t i = 0; i < n; ++i) {
      if (!w.session()) ClearCaches();
      CounterMap before = Counters();
      if (traced) m->log.set_op(static_cast<uint32_t>(i));
      size_t span_begin = m->log.size();
      Clock::time_point t0 = Clock::now();
      bool ok = traced ? w.RunTraced(i, &m->log) : w.Run(i);
      double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      CounterMap delta = CounterDelta(Counters(), before);
      ++m->attempted;
      if (!traced) {
        ok = w.Check(i, untraced_passes == 0) && ok;
        if (!m->identity.Observe(i, untraced_passes, delta)) ok = false;
        m->untraced.Record(i, ms);
      } else {
        if (m->traced.Record(i, ms)) {
          m->best_spans[i] = {span_begin, m->log.size()};
        }
        // The replay must do the pipeline call's work, counter for
        // counter. A session's earlier re-runs warm its plan cache, so
        // only per-input workloads are compared.
        const CounterMap* ref = m->identity.reference(i);
        if (!w.session() && ref != nullptr) {
          CounterMap expected = Without(*ref, omits);
          CounterMap got = Without(delta, omits);
          if (expected != got) {
            m->replay_mismatches.push_back(
                "input " + std::to_string(i) + ": pipeline {" +
                CounterMapToString(expected) + "} replay {" +
                CounterMapToString(got) + "}");
          }
        }
        for (const auto& [name, share_ms] : w.Shares(i)) {
          auto [it, inserted] = m->shares[i].emplace(name, share_ms);
          if (!inserted) it->second = std::min(it->second, share_ms);
        }
        w.Discard(i);
      }
      if (!ok && ++m->failed <= 10) {
        std::fprintf(stderr, "failed op: input %zu, pass %zu%s\n", i, pass,
                     traced ? " (traced)" : "");
      }
    }
    if (!w.EndPass()) m->pass_checks_ok = false;
    if (!traced) ++untraced_passes;
    last_pass_s = SecondsSince(pass_start);
    m->passes = pass + 1;
  }
}

// Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer metrics of a traced run.
std::vector<Metric> LayerMetrics(const Workload& w, const Measurement& m,
                                 const std::string& workload,
                                 bool* coverage_ok) {
  const size_t n = w.size();
  const double per_op = 1.0 / static_cast<double>(n);

  // Self times from each input's fastest traced pass.
  std::map<std::string, double> self_ms;
  double self_total = 0;
  double wall_total = 0;
  for (size_t i = 0; i < n; ++i) {
    auto [begin, end] = m.best_spans[i];
    for (const auto& [name, ms] : SelfTimesMs(m.log.spans(), begin, end)) {
      self_ms[name] += ms;
      self_total += ms;
    }
    wall_total += m.traced.best_ms(i);
  }
  std::map<std::string, double> share_ms;
  for (const auto& shares : m.shares) {
    for (const auto& [name, ms] : shares) share_ms[name] += ms;
  }

  // Counter deltas of the untraced pipeline calls (identical every pass).
  CounterMap sum;
  std::map<std::string, CounterMap> by_mode;
  std::map<std::string, size_t> mode_inputs;
  for (size_t i = 0; i < n; ++i) {
    const CounterMap* ref = m.identity.reference(i);
    if (ref == nullptr) continue;
    std::string mode = w.Mode(i);
    for (const auto& [name, value] : *ref) {
      sum[name] += value;
      if (!mode.empty()) by_mode[mode][name] += value;
    }
    if (!mode.empty()) ++mode_inputs[mode];
  }
  auto c = [&](const char* name) {
    auto it = sum.find(name);
    return it == sum.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto mode_c = [&](const std::string& mode, const char* name) {
    auto it = by_mode[mode].find(name);
    return it == by_mode[mode].end() ? 0.0
                                     : static_cast<double>(it->second);
  };
  auto mode_per_op = [&](const std::string& mode) {
    size_t k = mode_inputs[mode];
    return k == 0 ? 0.0 : 1.0 / static_cast<double>(k);
  };

  double untraced_total = 0;
  double traced_total = 0;
  for (size_t i = 0; i < n; ++i) {
    untraced_total += m.untraced.best_ms(i);
    traced_total += m.traced.best_ms(i);
  }
  double self_sum_pct = 100.0 * Ratio(self_total, wall_total);
  *coverage_ok = true;
  if (workload == "invert" || workload == "roundtrip") {
    *coverage_ok = std::abs(self_sum_pct - 100.0) <= 5.0;
  }

  std::vector<Metric> out = {
      {"dependency.parse_ms", Median(w.parse_ms()), "ms"},
      {"core.sigma_star_ms", self_ms["core.sigma_star"] * per_op, "ms"},
      {"core.mingen_ms", self_ms["core.mingen"] * per_op, "ms"},
      {"core.prune_ms", self_ms["core.prune"] * per_op, "ms"},
      {"core.quasi_inverse_self_ms", self_ms["core.quasi_inverse"] * per_op,
       "ms"},
      {"mingen.candidates", c("mingen.candidates") * per_op, "count"},
      {"mingen.generator_tests", c("mingen.generator_tests") * per_op,
       "count"},
      {"mingen.generator_yield",
       Ratio(c("mingen.generators"), c("mingen.generator_tests")), "ratio"},
      {"mingen.dedup_ratio",
       Ratio(c("mingen.dedup_pruned"),
             c("mingen.dedup_pruned") + c("mingen.dominated_pruned") +
                 c("mingen.candidates")),
       "ratio"},
      {"chase.runs", c("chase.runs") * per_op, "count"},
      {"chase.plan.compiles", c("chase.plan.compiles") * per_op, "count"},
      {"chase.plan.hit_ratio",
       Ratio(c("chase.plan.cache_hits"),
             c("chase.plan.cache_hits") + c("chase.plan.compiles")),
       "ratio"},
      {"chase.collect_ms", share_ms["chase.collect"] * per_op, "ms"},
      {"chase.plan_compile_ms", share_ms["chase.plan_compile"] * per_op,
       "ms"},
      {"chase.fire_ms",
       (self_ms["chase"] - share_ms["chase.collect"]) * per_op, "ms"},
      {"chase.steps", c("chase.steps") * per_op, "count"},
      {"chase.fire_ratio", Ratio(c("chase.triggers_fired"), c("chase.steps")),
       "ratio"},
      {"hom.match_ratio",
       Ratio(c("hom.matches"), c("hom.matches") + c("hom.backtracks")),
       "ratio"},
      {"chase.index.scan_rows", c("chase.index.scan_rows") * per_op, "count"},
      {"chase.index.point_lookups", c("chase.index.point_lookups") * per_op,
       "count"},
      {"chase.forward_ms", self_ms["chase.forward"] * per_op, "ms"},
      {"chase.dchase_ms", self_ms["chase.dchase"] * per_op, "ms"},
      {"chase.rechase_ms", self_ms["chase.rechase"] * per_op, "ms"},
      {"relational.hom_check_ms", self_ms["relational.hom_check"] * per_op,
       "ms"},
      {"core.round_trip_self_ms", self_ms["core.round_trip"] * per_op, "ms"},
      {"dchase.nodes", c("dchase.nodes") * per_op, "count"},
      {"dchase.leaves", c("dchase.leaves") * per_op, "count"},
      {"dchase.dedup_dropped", c("dchase.dedup_dropped") * per_op, "count"},
      {"solcache.hit_ratio",
       Ratio(c("solcache.hits"), c("solcache.hits") + c("solcache.misses")),
       "ratio"},
      {"hom.cache.hit_ratio",
       Ratio(c("hom.cache.hits"), c("hom.cache.hits") + c("hom.cache.misses")),
       "ratio"},
      {"relational.add_fact_ms", self_ms["relational.add_fact"] * per_op,
       "ms"},
      {"chase.delta_collect_ms", share_ms["chase.delta_collect"] * per_op,
       "ms"},
      {"chase.resume_ms", self_ms["chase.resume"] * per_op, "ms"},
  };
  for (const std::string mode : {"keyed", "arbitrary"}) {
    double k = mode_per_op(mode);
    out.push_back({"chase.delta.triggers." + mode,
                   mode_c(mode, "chase.delta.triggers") * k, "count"});
    out.push_back({"chase.delta.replayed." + mode,
                   mode_c(mode, "chase.delta.replayed") * k, "count"});
    out.push_back({"chase.delta.skip_ratio." + mode,
                   Ratio(mode_c(mode, "chase.delta.checks_skipped"),
                         mode_c(mode, "chase.delta.replayed")),
                   "ratio"});
  }
  out.push_back({"trace.overhead_pct",
                 100.0 * (Ratio(traced_total, untraced_total) - 1.0), "%"});
  out.push_back({"trace.self_sum_pct", self_sum_pct, "%"});
  return out;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) Usage("unknown workload " + args.workload);

  std::vector<double> setup_s;
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    Clock::time_point start = Clock::now();
    w = MakeWorkload(args.workload);
    w->Setup(args.seed);
    WarmUp(*w);
    setup_s.push_back(SecondsSince(start));
  }

  Measurement m(w->size());
  Measure(*w, args.seconds, args.trace, &m);
  bool final_ok = w->FinalCheck();

  std::optional<LatencySummary> summary = Summarize(m.untraced.best_ms());
  bool correct = summary.has_value() && m.failed == 0 && m.identity.ok() &&
                 m.pass_checks_ok && final_ok && m.replay_mismatches.empty();
  for (const std::string& mismatch : m.identity.mismatches()) {
    std::fprintf(stderr, "pass identity: %s\n", mismatch.c_str());
  }
  for (const std::string& mismatch : m.replay_mismatches) {
    std::fprintf(stderr, "traced replay: %s\n", mismatch.c_str());
  }
  if (!m.pass_checks_ok) std::fprintf(stderr, "end-of-pass check failed\n");
  if (!final_ok) std::fprintf(stderr, "final check failed\n");
  std::fprintf(stderr,
               "perfbench %s seed=%llu: %zu inputs, %zu passes, %llu ops, "
               "%llu failed\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), w->size(),
               m.passes, static_cast<unsigned long long>(m.attempted),
               static_cast<unsigned long long>(m.failed));

  std::vector<Metric> metrics;
  if (!args.trace) {
    LatencySummary s = summary.value_or(LatencySummary{});
    metrics = {{"setup_s", Median(setup_s), "s"},
               {"ops_per_s", s.ops_per_s, "1/s"},
               {"p50_ms", s.p50_ms, "ms"},
               {"p90_ms", s.p90_ms, "ms"},
               {"peak_rss_mb", PeakRssMb(), "MB"}};
  } else {
    bool coverage_ok = true;
    metrics = LayerMetrics(*w, m, args.workload, &coverage_ok);
    if (!coverage_ok) {
      std::fprintf(stderr, "layer self times do not sum to the op wall\n");
      correct = false;
    }
    // Only the spans the layer metrics came from.
    if (!args.trace_out.empty() &&
        !m.log.WriteChromeTrace(args.trace_out, m.best_spans)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }
  PrintResult(correct, m.attempted, m.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace qimap::perfbench

int main(int argc, char** argv) { return qimap::perfbench::Main(argc, argv); }
