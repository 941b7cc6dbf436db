// bench_report — merges the run records the benchmarks write
// (BENCH_<name>.json, bench/bench_util.h JsonReporter) into one
// BENCH_summary.json for CI to archive and diff, and optionally gates the
// merge against a committed baseline summary or the run ledger.
//
//   bench_report [--out FILE] [--baseline FILE --check
//                 [--tolerance X] [--counter-tolerance Y]]
//                [--history LEDGER.jsonl]
//                BENCH_a.json BENCH_b.json ...
//
// A bench's record names it by its command, "bench/<name>", and carries
// its timed `phases` and its metrics `counters`; records in the ledger
// are read the same way. The summary lists every bench with its phase
// timings and per-bench counters, sums all counters across the runs, and
// stamps the run metadata:
//
//   {"meta":{...},"count":2,"total_seconds":3.14,
//    "benches":[{"bench":"chase_scaling","seconds":1.2,
//                "phases":[{"name":"benchmarks","seconds":1.2}],
//                "counters":{"chase.steps":123,...}},...],
//    "counters":{"chase.steps":123,...}}
//
// Regression gate (--baseline FILE --check): every merged bench is
// compared against the same-named bench of the baseline summary.
//   * a bench missing from the baseline fails (refresh the baseline);
//   * wall time fails when cur > base * (1 + tolerance) + 0.05s
//     (--tolerance, default 0.5; the additive floor keeps sub-50ms
//     benches from tripping on scheduler noise);
//   * work counters are increases-only: a counter fails when
//     cur > base * (1 + counter-tolerance) + 16 (--counter-tolerance,
//     default 0.1);
//   * a baseline counter the run no longer emits fails: a bench that
//     stops counting (say `hom.searches`) would otherwise pass, and a
//     deliberately removed counter is dropped from the baseline.
// Violations print one line each on stderr and the exit code is 1, so a
// ctest leg wired through this gate fails loudly. To refresh the
// baseline after an intentional change, re-run the benches and copy the
// new BENCH_summary.json over bench/baselines/BENCH_summary.json.
//
// Ledger gate (--history LEDGER.jsonl): instead of (or on top of) the
// hand-committed baseline, every merged bench is gated against the
// median of its own recent history — the last 5 "bench/<name>" records
// of the run ledger (bench runs append one when QIMAP_LEDGER is set).
// Same tolerance formulas as --check; a bench with no ledger history yet
// passes, so the gate self-bootstraps as the ledger grows.
//
// Without --out the summary lands in $QIMAP_BENCH_OUT_DIR (or the working
// directory), mirroring where JsonReporter puts the per-bench files.
// Exit 0 iff every input parsed (and, under --check, no regression); a
// malformed report is a hard error so CI notices a bench that wrote
// garbage.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/run_record.h"
#include "arg_parse.h"

namespace qimap {
namespace {

struct BenchPhase {
  std::string name;
  double seconds = 0.0;
};

struct BenchEntry {
  std::string name;
  double seconds = 0.0;
  std::vector<BenchPhase> phases;
  std::map<std::string, double> counters;
};

bool Fail(const char* file, const std::string& why) {
  std::fprintf(stderr, "bench_report: %s: %s\n", file, why.c_str());
  return false;
}

// Reads one bench run record — a BENCH_<name>.json file or a ledger
// line whose command is "bench/<name>" — into `out`: the name, the
// phases (whose sum is the bench's seconds) and the counters.
bool ReadBenchRecord(const char* path, const obs::JsonValue& record,
                     const std::string& where, BenchEntry* out) {
  if (!record.IsObject()) return Fail(path, where + "not an object");
  const obs::JsonValue* command = record.Find("command");
  if (command == nullptr || !command->IsString() ||
      command->string_value.rfind("bench/", 0) != 0 ||
      command->string_value.size() == 6) {
    return Fail(path, where + "missing string 'command' \"bench/<name>\"");
  }
  const obs::JsonValue* phases = record.Find("phases");
  if (phases == nullptr || !phases->IsArray()) {
    return Fail(path, where + "missing 'phases' array");
  }
  out->name = command->string_value.substr(6);
  for (const obs::JsonValue& phase : phases->items) {
    const obs::JsonValue* phase_name = phase.Find("name");
    const obs::JsonValue* seconds = phase.Find("seconds");
    if (phase_name == nullptr || !phase_name->IsString() ||
        seconds == nullptr || !seconds->IsNumber()) {
      return Fail(path, where + "malformed phase entry");
    }
    BenchPhase parsed;
    parsed.name = phase_name->string_value;
    parsed.seconds = seconds->number_value;
    out->seconds += parsed.seconds;
    out->phases.push_back(std::move(parsed));
  }
  const obs::JsonValue* counters = record.Find("counters");
  if (counters != nullptr && counters->IsObject()) {
    for (const auto& [key, value] : counters->members) {
      if (value.IsNumber()) out->counters[key] = value.number_value;
    }
  }
  return true;
}

bool LoadReport(const char* path, std::vector<BenchEntry>* benches,
                std::map<std::string, double>* counters) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  BenchEntry entry;
  if (!ReadBenchRecord(path, *doc, "", &entry)) return false;
  for (const auto& [key, value] : entry.counters) (*counters)[key] += value;
  benches->push_back(std::move(entry));
  return true;
}

// Parses a previously written BENCH_summary.json (the committed
// baseline): bench name -> {seconds, per-bench counters}. The gate
// compares whole-bench seconds, so the baseline's phase detail is not
// read.
bool LoadBaseline(const char* path,
                  std::map<std::string, BenchEntry>* baseline) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  if (!doc->IsObject()) return Fail(path, "top level is not an object");
  const obs::JsonValue* benches = doc->Find("benches");
  if (benches == nullptr || !benches->IsArray()) {
    return Fail(path, "missing 'benches' array (not a summary file?)");
  }
  for (const obs::JsonValue& bench : benches->items) {
    const obs::JsonValue* name = bench.Find("bench");
    const obs::JsonValue* seconds = bench.Find("seconds");
    if (name == nullptr || !name->IsString() || seconds == nullptr ||
        !seconds->IsNumber()) {
      return Fail(path, "malformed baseline bench entry");
    }
    BenchEntry entry;
    entry.name = name->string_value;
    entry.seconds = seconds->number_value;
    const obs::JsonValue* bench_counters = bench.Find("counters");
    if (bench_counters != nullptr && bench_counters->IsObject()) {
      for (const auto& [key, value] : bench_counters->members) {
        if (value.IsNumber()) entry.counters[key] = value.number_value;
      }
    }
    (*baseline)[entry.name] = std::move(entry);
  }
  return true;
}

// Compares the merged benches against the baseline; one stderr line per
// violation. Returns the number of violations.
int CheckAgainstBaseline(const std::vector<BenchEntry>& benches,
                         const std::map<std::string, BenchEntry>& baseline,
                         double tolerance, double counter_tolerance) {
  int violations = 0;
  for (const BenchEntry& bench : benches) {
    auto it = baseline.find(bench.name);
    if (it == baseline.end()) {
      std::fprintf(stderr,
                   "bench_report: CHECK FAIL: bench '%s' is not in the "
                   "baseline; refresh the baseline "
                   "(bench/baselines/BENCH_summary.json)\n",
                   bench.name.c_str());
      ++violations;
      continue;
    }
    const BenchEntry& base = it->second;
    // Additive 50ms floor: sub-50ms benches are all scheduler noise.
    double time_limit = base.seconds * (1.0 + tolerance) + 0.05;
    if (bench.seconds > time_limit) {
      std::fprintf(stderr,
                   "bench_report: CHECK FAIL: '%s' took %.3fs, limit "
                   "%.3fs (baseline %.3fs, tolerance %.0f%%)\n",
                   bench.name.c_str(), bench.seconds, time_limit,
                   base.seconds, tolerance * 100.0);
      ++violations;
    }
    for (const auto& [key, value] : bench.counters) {
      auto base_counter = base.counters.find(key);
      // A counter the baseline has never seen is new instrumentation,
      // not a regression; only increases of known counters are gated.
      if (base_counter == base.counters.end()) continue;
      double limit =
          base_counter->second * (1.0 + counter_tolerance) + 16.0;
      if (value > limit) {
        std::fprintf(stderr,
                     "bench_report: CHECK FAIL: '%s' counter '%s' is "
                     "%.0f, limit %.0f (baseline %.0f)\n",
                     bench.name.c_str(), key.c_str(), value, limit,
                     base_counter->second);
        ++violations;
      }
    }
    for (const auto& [key, value] : base.counters) {
      if (bench.counters.count(key) != 0) continue;
      std::fprintf(stderr,
                   "bench_report: CHECK FAIL: '%s' counter '%s' is in the "
                   "baseline (%.0f) but the run does not report it; drop "
                   "it from the baseline if it was removed on purpose\n",
                   bench.name.c_str(), key.c_str(), value);
      ++violations;
    }
  }
  return violations;
}

// Loads per-bench history from the JSONL run ledger: the bench records
// (command "bench/<name>"), keyed by bench name, in append order.
bool LoadHistory(const char* path,
                 std::map<std::string, std::vector<BenchEntry>>* out) {
  Result<std::vector<std::pair<size_t, obs::JsonValue>>> lines =
      obs::ParseJsonLinesFile(path);
  if (!lines.ok()) return Fail(path, lines.status().message());
  for (const auto& [line_no, record] : *lines) {
    const obs::JsonValue* command = record.Find("command");
    if (command == nullptr || !command->IsString() ||
        command->string_value.rfind("bench/", 0) != 0) {
      continue;  // a CLI run; only bench records feed the gate
    }
    BenchEntry run;
    if (!ReadBenchRecord(path, record,
                         "line " + std::to_string(line_no) + ": ", &run)) {
      return false;
    }
    (*out)[run.name].push_back(std::move(run));
  }
  return true;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];  // lower median
}

// Gates the merged benches against the median of each bench's last
// `window` ledger runs; same formulas as the baseline check. A bench
// with no history passes — the gate self-bootstraps as the ledger grows.
int CheckAgainstHistory(
    const std::vector<BenchEntry>& benches,
    const std::map<std::string, std::vector<BenchEntry>>& history,
    double tolerance, double counter_tolerance, size_t window) {
  int violations = 0;
  for (const BenchEntry& bench : benches) {
    auto it = history.find(bench.name);
    if (it == history.end() || it->second.empty()) {
      std::printf("bench_report: history: '%s' has no ledger runs yet\n",
                  bench.name.c_str());
      continue;
    }
    const std::vector<BenchEntry>& runs = it->second;
    size_t first = runs.size() > window ? runs.size() - window : 0;
    std::vector<double> seconds;
    for (size_t i = first; i < runs.size(); ++i) {
      seconds.push_back(runs[i].seconds);
    }
    double median_seconds = Median(seconds);
    double time_limit = median_seconds * (1.0 + tolerance) + 0.05;
    if (bench.seconds > time_limit) {
      std::fprintf(stderr,
                   "bench_report: HISTORY FAIL: '%s' took %.3fs, limit "
                   "%.3fs (median of last %zu: %.3fs)\n",
                   bench.name.c_str(), bench.seconds, time_limit,
                   seconds.size(), median_seconds);
      ++violations;
    }
    for (const auto& [key, value] : bench.counters) {
      std::vector<double> samples;
      for (size_t i = first; i < runs.size(); ++i) {
        auto counter = runs[i].counters.find(key);
        if (counter != runs[i].counters.end()) {
          samples.push_back(counter->second);
        }
      }
      // A counter the history has never seen is new instrumentation.
      if (samples.empty()) continue;
      double median_counter = Median(samples);
      double limit = median_counter * (1.0 + counter_tolerance) + 16.0;
      if (value > limit) {
        std::fprintf(stderr,
                     "bench_report: HISTORY FAIL: '%s' counter '%s' is "
                     "%.0f, limit %.0f (median of last %zu: %.0f)\n",
                     bench.name.c_str(), key.c_str(), value, limit,
                     samples.size(), median_counter);
        ++violations;
      }
    }
  }
  return violations;
}

void AppendNumber(std::string* out, double value) {
  char buffer[64];
  // Counters are integral; phase timings keep microsecond precision.
  if (value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  }
  *out += buffer;
}

void AppendCounters(std::string* out,
                    const std::map<std::string, double>& counters) {
  out->push_back('{');
  bool first = true;
  for (const auto& [key, value] : counters) {
    if (!first) out->push_back(',');
    first = false;
    obs::AppendJsonString(out, key);
    out->push_back(':');
    AppendNumber(out, value);
  }
  out->push_back('}');
}

std::string ToJson(const std::vector<BenchEntry>& benches,
                   const std::map<std::string, double>& counters) {
  double total = 0.0;
  for (const BenchEntry& bench : benches) total += bench.seconds;
  std::string out = "{\"meta\":" + obs::RunMetaJson() +
                    ",\"count\":" + std::to_string(benches.size()) +
                    ",\"total_seconds\":";
  AppendNumber(&out, total);
  out += ",\"benches\":[";
  for (size_t i = 0; i < benches.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"bench\":";
    obs::AppendJsonString(&out, benches[i].name);
    out += ",\"seconds\":";
    AppendNumber(&out, benches[i].seconds);
    out += ",\"phases\":[";
    for (size_t k = 0; k < benches[i].phases.size(); ++k) {
      if (k > 0) out.push_back(',');
      const BenchPhase& phase = benches[i].phases[k];
      out += "{\"name\":";
      obs::AppendJsonString(&out, phase.name);
      out += ",\"seconds\":";
      AppendNumber(&out, phase.seconds);
      out.push_back('}');
    }
    out += "],\"counters\":";
    AppendCounters(&out, benches[i].counters);
    out += "}";
  }
  out += "],\"counters\":";
  AppendCounters(&out, counters);
  out += "}\n";
  return out;
}

// Strict parse for the tolerance flags: garbage must be an error.
bool ParseDouble(const char* text, const char* flag, double* out) {
  if (!tools::ParseNonNegativeDouble(text, out)) {
    std::fprintf(stderr,
                 "bench_report: %s expects a non-negative number, got "
                 "'%s'\n",
                 flag, text);
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  tools::ArgSpec spec;
  spec.value_flags = {"out", "baseline", "tolerance", "counter-tolerance",
                      "history"};
  spec.bool_flags = {"check"};
  spec.allow_positionals = true;  // the BENCH_<name>.json inputs
  tools::ParsedArgs args;
  std::string error;
  if (!tools::ParseArgs(argc, argv, 1, spec, &args, &error)) {
    std::fprintf(stderr, "bench_report: %s\n", error.c_str());
    return 2;
  }
  std::string out_path = args.Get("out", "");
  const char* baseline_path = args.Get("baseline");
  const char* history_path = args.Get("history");
  bool check = args.Has("check");
  double tolerance = 0.5;
  double counter_tolerance = 0.1;
  if (!ParseDouble(args.Get("tolerance", "0.5"), "--tolerance",
                   &tolerance) ||
      !ParseDouble(args.Get("counter-tolerance", "0.1"),
                   "--counter-tolerance", &counter_tolerance)) {
    return 2;
  }
  const std::vector<std::string>& inputs = args.positionals;
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "usage: bench_report [--out FILE] [--baseline FILE "
                 "--check [--tolerance X] [--counter-tolerance Y]] "
                 "[--history LEDGER.jsonl] BENCH_a.json ...\n");
    return 2;
  }
  if (check && baseline_path == nullptr) {
    std::fprintf(stderr, "bench_report: --check requires --baseline\n");
    return 2;
  }
  if (out_path.empty()) {
    const char* dir = std::getenv("QIMAP_BENCH_OUT_DIR");
    out_path = dir != nullptr ? std::string(dir) + "/" : "";
    out_path += "BENCH_summary.json";
  }

  std::vector<BenchEntry> benches;
  std::map<std::string, double> counters;
  for (const std::string& path : inputs) {
    if (!LoadReport(path.c_str(), &benches, &counters)) return 1;
  }
  std::string json = ToJson(benches, counters);
  if (!obs::WriteFileAtomic(out_path, json)) {
    std::fprintf(stderr, "bench_report: cannot write '%s'\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("bench_report: %zu reports -> %s\n", benches.size(),
              out_path.c_str());

  if (check) {
    std::map<std::string, BenchEntry> baseline;
    if (!LoadBaseline(baseline_path, &baseline)) return 1;
    int violations = CheckAgainstBaseline(benches, baseline, tolerance,
                                          counter_tolerance);
    if (violations > 0) {
      std::fprintf(stderr,
                   "bench_report: %d regression(s) against baseline %s\n",
                   violations, baseline_path);
      return 1;
    }
    std::printf("bench_report: check OK against %s (%zu benches, "
                "tolerance %.0f%%, counter tolerance %.0f%%)\n",
                baseline_path, benches.size(), tolerance * 100.0,
                counter_tolerance * 100.0);
  }

  if (history_path != nullptr) {
    std::map<std::string, std::vector<BenchEntry>> history;
    if (!LoadHistory(history_path, &history)) return 1;
    constexpr size_t kHistoryWindow = 5;
    int violations = CheckAgainstHistory(benches, history, tolerance,
                                         counter_tolerance, kHistoryWindow);
    if (violations > 0) {
      std::fprintf(stderr,
                   "bench_report: %d regression(s) against ledger "
                   "history %s\n",
                   violations, history_path);
      return 1;
    }
    std::printf("bench_report: history OK against %s (%zu benches, "
                "median of last %zu runs)\n",
                history_path, benches.size(), kHistoryWindow);
  }
  return 0;
}

}  // namespace
}  // namespace qimap

int main(int argc, char** argv) { return qimap::Main(argc, argv); }
