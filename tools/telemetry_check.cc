// telemetry_check — validates the telemetry files written by qimap_cli.
//
//   telemetry_check [--trace F] [--metrics F] [--journal F] [--explain F]
//                   [--parallel F] [--compare A B]
//   telemetry_check <trace.json> <metrics.json>            (legacy form)
//
// Exit 0 iff every named file passes its check:
//   --trace    well-formed Chrome trace-event JSON with >= 1 event
//   --metrics  metrics snapshot with nonzero chase.* and hom.* counters
//   --journal  provenance JSONL: monotone event ids, known kinds, every
//              parent/null reference resolves to an earlier event
//   --explain  qimap_cli explain JSON: every tree bottoms out in base
//              facts, and every derived node names its dependency and
//              parents
//   --parallel metrics snapshot (or BENCH_<name>.json report, whose
//              counters sit under "metrics") with a nonzero
//              chase.parallel.* counter — proves the thread pool fanned
//              out
//   --sharded  like --parallel, but specifically requires nonzero
//              chase.parallel.shard_batches and .shard_triggers — proves
//              the run fired triggers through the sharded parallel
//              firing path, not just parallel trigger collection
//   --compare  two such files whose counters must be identical except
//              for the chase.parallel.* family — the multi-threaded
//              chase must do exactly the same work as the serial one,
//              it may only distribute it
//   --budget   metrics snapshot with a nonzero budget.exhausted counter
//              AND a nonzero budget.exhausted.<limit> breakdown — proves
//              a governed run tripped its resource budget and said which
//              limit
//   --incremental  metrics snapshot with nonzero chase.delta.runs and
//              chase.delta.checks_skipped counters — proves a chase
//              resumed from a checkpoint and replayed prior work
//   --containment  metrics snapshot with nonzero containment.runs and
//              containment.tgds_checked counters — proves the mapping-
//              containment oracle ran and decided dependencies
//   --profile  qimap_cli --profile-out JSON: run-metadata stamp, dense
//              sequential dependency ids, per-atom rows of the right
//              length whose probe/scan/unify sums equal the per-
//              dependency totals, and well-formed aggregate traceEvents
//   --progress qimap_cli --progress-out JSONL: an optional leading
//              `{"meta": ...}` header, then heartbeat objects with
//              strictly increasing seq, a nonempty pipeline, numeric
//              step/fact/null/fired/skipped counters, and at least one
//              final heartbeat
//   --ledger   run-ledger JSONL (qimap_cli --ledger): one record per
//              line with dense 1-based seq, a nonempty command, the
//              run-metadata stamp, a budget outcome, fingerprints, and
//              a counters object
//   --plan     qimap_cli analyze --plan-out JSON: a plans array whose
//              entries name their dependency and carry a compiled plan —
//              step order a permutation, known access modes, probe steps
//              with probe columns, register references in range
// Journal files may start with a `{"meta": {...}}` header line (the run-
// metadata stamp every writer emits); it is validated, not counted as an
// event.
// Used by the qimap_cli_telemetry_validate / qimap_cli_explain_validate /
// bench_*_parallel_validate ctest cases; diagnostics go to stderr.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "obs/json.h"
#include "arg_parse.h"

namespace qimap {
namespace {

bool Fail(const char* file, const std::string& why) {
  std::fprintf(stderr, "telemetry_check: %s: %s\n", file, why.c_str());
  return false;
}

bool CheckTrace(const char* path) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  if (!doc->IsObject()) return Fail(path, "top level is not an object");
  const obs::JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->IsArray()) {
    return Fail(path, "missing 'traceEvents' array");
  }
  if (events->items.empty()) {
    return Fail(path, "'traceEvents' is empty (no spans recorded)");
  }
  for (const obs::JsonValue& event : events->items) {
    if (!event.IsObject()) {
      return Fail(path, "trace event is not an object");
    }
    const obs::JsonValue* name = event.Find("name");
    const obs::JsonValue* ph = event.Find("ph");
    const obs::JsonValue* ts = event.Find("ts");
    if (name == nullptr || !name->IsString() ||
        name->string_value.empty()) {
      return Fail(path, "trace event lacks a string 'name'");
    }
    if (ph == nullptr || !ph->IsString()) {
      return Fail(path, "trace event lacks a string 'ph'");
    }
    if (ts == nullptr || !ts->IsNumber()) {
      return Fail(path, "trace event lacks a numeric 'ts'");
    }
  }
  return true;
}

// True iff `counters` has at least one key with the given dotted prefix
// mapped to a number > 0.
bool HasNonzeroWithPrefix(const obs::JsonValue& counters,
                          const std::string& prefix) {
  for (const auto& [key, value] : counters.members) {
    if (key.rfind(prefix, 0) == 0 && value.IsNumber() &&
        value.number_value > 0) {
      return true;
    }
  }
  return false;
}

bool CheckMetrics(const char* path) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  if (!doc->IsObject()) return Fail(path, "top level is not an object");
  const obs::JsonValue* counters = doc->Find("counters");
  if (counters == nullptr || !counters->IsObject()) {
    return Fail(path, "missing 'counters' object");
  }
  if (!HasNonzeroWithPrefix(*counters, "chase.")) {
    return Fail(path, "no nonzero 'chase.*' counter");
  }
  if (!HasNonzeroWithPrefix(*counters, "hom.")) {
    return Fail(path, "no nonzero 'hom.*' counter");
  }
  return true;
}

// Locates the "counters" object in either a bare metrics snapshot
// ({"counters": {...}}) or a bench report ({"metrics": {"counters": ...}}).
const obs::JsonValue* FindCounters(const obs::JsonValue& doc) {
  if (!doc.IsObject()) return nullptr;
  const obs::JsonValue* counters = doc.Find("counters");
  if (counters != nullptr && counters->IsObject()) return counters;
  const obs::JsonValue* metrics = doc.Find("metrics");
  if (metrics != nullptr && metrics->IsObject()) {
    counters = metrics->Find("counters");
    if (counters != nullptr && counters->IsObject()) return counters;
  }
  return nullptr;
}

bool LoadCounters(const char* path,
                  std::map<std::string, double>* out) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  const obs::JsonValue* counters = FindCounters(*doc);
  if (counters == nullptr) {
    return Fail(path, "no 'counters' object (top level or under 'metrics')");
  }
  for (const auto& [key, value] : counters->members) {
    if (value.IsNumber()) (*out)[key] = value.number_value;
  }
  return true;
}

// The parallel chase increments chase.parallel.batches / .tasks only when
// a pool with >= 2 threads actually fanned out >= 2 tasks, so a nonzero
// counter is proof the run was genuinely multi-threaded.
bool CheckParallel(const char* path) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  const obs::JsonValue* counters = FindCounters(*doc);
  if (counters == nullptr) {
    return Fail(path, "no 'counters' object (top level or under 'metrics')");
  }
  if (!HasNonzeroWithPrefix(*counters, "chase.parallel.")) {
    return Fail(path,
                "no nonzero 'chase.parallel.*' counter — the run never "
                "fanned out across threads");
  }
  return true;
}

// Sharded firing keeps its own counters (chase.parallel.shard_*) apart
// from the trigger-collection fan-out, so a run that only parallelized
// collection does not pass for one that fired shards on the pool.
bool CheckSharded(const char* path) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  const obs::JsonValue* counters = FindCounters(*doc);
  if (counters == nullptr) {
    return Fail(path, "no 'counters' object (top level or under 'metrics')");
  }
  bool ok = true;
  for (const char* name :
       {"chase.parallel.shard_batches", "chase.parallel.shard_triggers"}) {
    const obs::JsonValue* counter = counters->Find(name);
    if (counter == nullptr || !counter->IsNumber() ||
        counter->number_value <= 0) {
      char why[160];
      std::snprintf(why, sizeof(why),
                    "counter '%s' missing or zero — the run never fired "
                    "triggers through the sharded path",
                    name);
      ok = Fail(path, why) && ok;
    }
  }
  return ok;
}

bool IsParallelCounter(const std::string& key) {
  return key.rfind("chase.parallel.", 0) == 0;
}

// Serial-vs-parallel differential check: every counter except the
// chase.parallel.* family must agree exactly, because thread count may
// only change how the chase's work is distributed, never what it does.
bool CheckCompare(const char* path_a, const char* path_b) {
  std::map<std::string, double> a, b;
  if (!LoadCounters(path_a, &a) || !LoadCounters(path_b, &b)) return false;
  bool ok = true;
  for (const auto& [key, value_a] : a) {
    if (IsParallelCounter(key)) continue;
    auto it = b.find(key);
    double value_b = it == b.end() ? 0.0 : it->second;
    if (value_a != value_b) {
      char why[256];
      std::snprintf(why, sizeof(why),
                    "counter '%s' differs: %.0f vs %.0f in %s", key.c_str(),
                    value_a, value_b, path_b);
      ok = Fail(path_a, why) && ok;
    }
  }
  for (const auto& [key, value_b] : b) {
    if (IsParallelCounter(key) || a.count(key) > 0 || value_b == 0) continue;
    ok = Fail(path_b, "counter '" + key + "' missing from " + path_a) && ok;
  }
  return ok;
}

bool ReadFile(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out->append(buffer, n);
  }
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

// Each id-array member ("parents", "nulls") must reference an event that
// appeared earlier in the journal (parent-before-child).
bool CheckIdArray(const char* path, const obs::JsonValue& event,
                  const char* key, uint64_t id,
                  const std::set<uint64_t>& seen) {
  const obs::JsonValue* ids = event.Find(key);
  if (ids == nullptr) return true;
  if (!ids->IsArray()) {
    return Fail(path, "event " + std::to_string(id) + ": '" + key +
                          "' is not an array");
  }
  for (const obs::JsonValue& ref : ids->items) {
    if (!ref.IsNumber()) {
      return Fail(path, "event " + std::to_string(id) + ": non-numeric '" +
                            key + "' entry");
    }
    uint64_t ref_id = static_cast<uint64_t>(ref.number_value);
    if (ref_id >= id) {
      return Fail(path, "event " + std::to_string(id) + ": '" + key +
                            "' reference " + std::to_string(ref_id) +
                            " is not earlier than the event");
    }
    if (seen.count(ref_id) == 0) {
      return Fail(path, "event " + std::to_string(id) + ": '" + key +
                            "' reference " + std::to_string(ref_id) +
                            " does not resolve to any journal event");
    }
  }
  return true;
}

bool IsKnownKind(const std::string& kind) {
  return kind == "base" || kind == "fact" || kind == "null" ||
         kind == "merge" || kind == "rule" || kind == "budget";
}

// An incremental chase resume flushes the chase.delta.* family: runs must
// be nonzero (a resume happened) and checks_skipped nonzero (the resume
// actually replayed prior work instead of redoing it).
bool CheckIncremental(const char* path) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  const obs::JsonValue* counters = FindCounters(*doc);
  if (counters == nullptr) {
    return Fail(path, "no 'counters' object (top level or under 'metrics')");
  }
  const obs::JsonValue* runs = counters->Find("chase.delta.runs");
  if (runs == nullptr || !runs->IsNumber() || runs->number_value <= 0) {
    return Fail(path,
                "no nonzero 'chase.delta.runs' counter — no chase resumed "
                "from a checkpoint");
  }
  const obs::JsonValue* skipped =
      counters->Find("chase.delta.checks_skipped");
  if (skipped == nullptr || !skipped->IsNumber() ||
      skipped->number_value <= 0) {
    return Fail(path,
                "no nonzero 'chase.delta.checks_skipped' counter — the "
                "resume redid every satisfaction check");
  }
  return true;
}

// A containment check (qimap_cli contains) flushes the containment.*
// family: runs must be nonzero (the oracle ran) and tgds_checked nonzero
// (it actually decided conclusion dependencies, not an empty Sigma').
bool CheckContainment(const char* path) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  const obs::JsonValue* counters = FindCounters(*doc);
  if (counters == nullptr) {
    return Fail(path, "no 'counters' object (top level or under 'metrics')");
  }
  const obs::JsonValue* runs = counters->Find("containment.runs");
  if (runs == nullptr || !runs->IsNumber() || runs->number_value <= 0) {
    return Fail(path,
                "no nonzero 'containment.runs' counter — the containment "
                "oracle never ran");
  }
  const obs::JsonValue* checked = counters->Find("containment.tgds_checked");
  if (checked == nullptr || !checked->IsNumber() ||
      checked->number_value <= 0) {
    return Fail(path,
                "no nonzero 'containment.tgds_checked' counter — the "
                "oracle decided no conclusion dependencies");
  }
  return true;
}

// A governed run that tripped writes both the aggregate budget.exhausted
// counter and a per-limit budget.exhausted.<limit> breakdown; requiring
// both proves the exhaustion path ran end to end, not just the aggregate.
bool CheckBudget(const char* path) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  const obs::JsonValue* counters = FindCounters(*doc);
  if (counters == nullptr) {
    return Fail(path, "no 'counters' object (top level or under 'metrics')");
  }
  const obs::JsonValue* exhausted = counters->Find("budget.exhausted");
  if (exhausted == nullptr || !exhausted->IsNumber() ||
      exhausted->number_value <= 0) {
    return Fail(path,
                "no nonzero 'budget.exhausted' counter — the run never "
                "tripped its resource budget");
  }
  if (!HasNonzeroWithPrefix(*counters, "budget.exhausted.")) {
    return Fail(path,
                "no nonzero 'budget.exhausted.<limit>' counter — the trip "
                "did not record which limit it hit");
  }
  return true;
}

// Validates a run-metadata stamp: an object carrying at least the
// producing library's version string.
bool CheckMetaObject(const char* path, const obs::JsonValue& meta,
                     const char* where) {
  if (!meta.IsObject()) {
    return Fail(path, std::string(where) + ": 'meta' is not an object");
  }
  const obs::JsonValue* version = meta.Find("qimap_version");
  if (version == nullptr || !version->IsString() ||
      version->string_value.empty()) {
    return Fail(path, std::string(where) +
                          ": 'meta' lacks a string 'qimap_version'");
  }
  const obs::JsonValue* threads = meta.Find("threads");
  if (threads == nullptr || !threads->IsNumber()) {
    return Fail(path, std::string(where) +
                          ": 'meta' lacks a numeric 'threads'");
  }
  return true;
}

// Validates one provenance JSONL file (qimap_cli --journal-out): an
// optional leading `{"meta": ...}` header, then one JSON object per line
// with strictly increasing ids, known kinds, and every parent/null
// reference resolvable to an earlier event.
bool CheckJournal(const char* path) {
  std::string text;
  if (!ReadFile(path, &text)) return Fail(path, "cannot read file");
  std::set<uint64_t> seen;
  uint64_t last_id = 0;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    Result<obs::JsonValue> event = obs::ParseJson(line);
    if (!event.ok()) {
      return Fail(path, "line " + std::to_string(line_no) + ": " +
                            event.status().ToString());
    }
    if (!event->IsObject()) {
      return Fail(path,
                  "line " + std::to_string(line_no) + ": not an object");
    }
    const obs::JsonValue* meta = event->Find("meta");
    if (meta != nullptr && event->Find("id") == nullptr) {
      // The run-metadata header line.
      if (line_no != 1) {
        return Fail(path, "line " + std::to_string(line_no) +
                              ": 'meta' header is only valid as the "
                              "first line");
      }
      if (!CheckMetaObject(path, *meta,
                           ("line " + std::to_string(line_no)).c_str())) {
        return false;
      }
      continue;
    }
    const obs::JsonValue* id = event->Find("id");
    if (id == nullptr || !id->IsNumber() || id->number_value < 1) {
      return Fail(path, "line " + std::to_string(line_no) +
                            ": missing numeric 'id' >= 1");
    }
    uint64_t id_value = static_cast<uint64_t>(id->number_value);
    if (id_value <= last_id) {
      return Fail(path, "line " + std::to_string(line_no) + ": id " +
                            std::to_string(id_value) +
                            " is not strictly increasing (previous " +
                            std::to_string(last_id) + ")");
    }
    last_id = id_value;
    const obs::JsonValue* kind = event->Find("kind");
    if (kind == nullptr || !kind->IsString() ||
        !IsKnownKind(kind->string_value)) {
      return Fail(path, "line " + std::to_string(line_no) +
                            ": missing or unknown 'kind'");
    }
    const obs::JsonValue* run = event->Find("run");
    if (run == nullptr || !run->IsNumber()) {
      return Fail(path, "line " + std::to_string(line_no) +
                            ": missing numeric 'run'");
    }
    const obs::JsonValue* pipeline = event->Find("pipeline");
    if (pipeline == nullptr || !pipeline->IsString() ||
        pipeline->string_value.empty()) {
      return Fail(path, "line " + std::to_string(line_no) +
                            ": missing string 'pipeline'");
    }
    const obs::JsonValue* fact = event->Find("fact");
    if (fact == nullptr || !fact->IsString() ||
        fact->string_value.empty()) {
      return Fail(path, "line " + std::to_string(line_no) +
                            ": missing string 'fact'");
    }
    if (!CheckIdArray(path, *event, "parents", id_value, seen) ||
        !CheckIdArray(path, *event, "nulls", id_value, seen)) {
      return false;
    }
    seen.insert(id_value);
  }
  if (seen.empty()) return Fail(path, "journal has no events");
  return true;
}

// Reads a required non-negative number out of an object.
bool GetCount(const char* path, const obs::JsonValue& obj, const char* key,
              const std::string& where, double* out) {
  const obs::JsonValue* value = obj.Find(key);
  if (value == nullptr || !value->IsNumber() || value->number_value < 0) {
    Fail(path, where + ": missing non-negative numeric '" + key + "'");
    return false;
  }
  *out = value->number_value;
  return true;
}

// Validates a qimap_cli --profile-out JSON file: the run-metadata stamp,
// a nonempty deps array with dense sequential ids, and — the load-bearing
// invariant — per-atom probe/scan/unify rows that sum exactly to the
// per-dependency body totals (the profiler computes totals as those sums,
// so any drift means merge or attribution corruption).
bool CheckProfile(const char* path) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  if (!doc->IsObject()) return Fail(path, "top level is not an object");
  const obs::JsonValue* meta = doc->Find("meta");
  if (meta == nullptr) return Fail(path, "missing 'meta' stamp");
  if (!CheckMetaObject(path, *meta, "top level")) return false;
  const obs::JsonValue* deps = doc->Find("deps");
  if (deps == nullptr || !deps->IsArray()) {
    return Fail(path, "missing 'deps' array");
  }
  if (deps->items.empty()) {
    return Fail(path, "'deps' is empty (nothing was profiled)");
  }
  constexpr size_t kMaxAtoms = 12;  // obs::kMaxProfileAtoms
  for (size_t i = 0; i < deps->items.size(); ++i) {
    const obs::JsonValue& dep = deps->items[i];
    std::string where = "dep " + std::to_string(i);
    if (!dep.IsObject()) return Fail(path, where + ": not an object");
    const obs::JsonValue* id = dep.Find("id");
    if (id == nullptr || !id->IsNumber() ||
        id->number_value != static_cast<double>(i)) {
      // Registration is serial, so snapshot ids are dense and in order.
      return Fail(path, where + ": 'id' is not the dense sequential " +
                            std::to_string(i));
    }
    const obs::JsonValue* pipeline = dep.Find("pipeline");
    if (pipeline == nullptr || !pipeline->IsString() ||
        pipeline->string_value.empty()) {
      return Fail(path, where + ": missing string 'pipeline'");
    }
    const obs::JsonValue* text = dep.Find("dependency");
    if (text == nullptr || !text->IsString() ||
        text->string_value.empty()) {
      return Fail(path, where + ": missing string 'dependency'");
    }
    double body_atoms = 0;
    if (!GetCount(path, dep, "body_atoms", where, &body_atoms)) {
      return false;
    }
    const obs::JsonValue* totals = dep.Find("totals");
    if (totals == nullptr || !totals->IsObject()) {
      return Fail(path, where + ": missing 'totals' object");
    }
    double backtracks = 0, probe_rows = 0, scan_rows = 0;
    if (!GetCount(path, *totals, "backtracks", where, &backtracks) ||
        !GetCount(path, *totals, "probe_rows", where, &probe_rows) ||
        !GetCount(path, *totals, "scan_rows", where, &scan_rows)) {
      return false;
    }
    const obs::JsonValue* atoms = dep.Find("atoms");
    if (atoms == nullptr || !atoms->IsArray()) {
      return Fail(path, where + ": missing 'atoms' array");
    }
    size_t want_atoms = static_cast<size_t>(body_atoms);
    if (want_atoms > kMaxAtoms) want_atoms = kMaxAtoms;
    if (atoms->items.size() != want_atoms) {
      return Fail(path, where + ": 'atoms' has " +
                            std::to_string(atoms->items.size()) +
                            " rows, expected " +
                            std::to_string(want_atoms));
    }
    double sum_fails = 0, sum_probe_rows = 0, sum_scan_rows = 0;
    for (size_t a = 0; a < atoms->items.size(); ++a) {
      const obs::JsonValue& atom = atoms->items[a];
      std::string atom_where = where + " atom " + std::to_string(a);
      if (!atom.IsObject()) {
        return Fail(path, atom_where + ": not an object");
      }
      const obs::JsonValue* pos = atom.Find("pos");
      if (pos == nullptr || !pos->IsNumber() ||
          pos->number_value != static_cast<double>(a)) {
        return Fail(path, atom_where + ": 'pos' mismatch");
      }
      double probes = 0, a_probe = 0, a_scan = 0, a_fails = 0;
      if (!GetCount(path, atom, "probes", atom_where, &probes) ||
          !GetCount(path, atom, "probe_rows", atom_where, &a_probe) ||
          !GetCount(path, atom, "scan_rows", atom_where, &a_scan) ||
          !GetCount(path, atom, "unify_fails", atom_where, &a_fails)) {
        return false;
      }
      sum_fails += a_fails;
      sum_probe_rows += a_probe;
      sum_scan_rows += a_scan;
    }
    auto mismatch = [&](const char* field, double total,
                        double sum) -> bool {
      char why[256];
      std::snprintf(why, sizeof(why),
                    "%s: sum(atoms.%s) = %.0f does not equal totals = "
                    "%.0f",
                    where.c_str(), field, sum, total);
      return Fail(path, why);
    };
    if (sum_fails != backtracks) {
      return mismatch("unify_fails", backtracks, sum_fails);
    }
    if (sum_probe_rows != probe_rows) {
      return mismatch("probe_rows", probe_rows, sum_probe_rows);
    }
    if (sum_scan_rows != scan_rows) {
      return mismatch("scan_rows", scan_rows, sum_scan_rows);
    }
  }
  // The aggregate spans are optional (canonical profiles omit them) but
  // must be well-formed Chrome complete events when present.
  const obs::JsonValue* spans = doc->Find("traceEvents");
  if (spans != nullptr) {
    if (!spans->IsArray()) {
      return Fail(path, "'traceEvents' is not an array");
    }
    for (const obs::JsonValue& span : spans->items) {
      const obs::JsonValue* ph = span.Find("ph");
      const obs::JsonValue* ts = span.Find("ts");
      const obs::JsonValue* dur = span.Find("dur");
      if (!span.IsObject() || ph == nullptr || !ph->IsString() ||
          ph->string_value != "X" || ts == nullptr || !ts->IsNumber() ||
          dur == nullptr || !dur->IsNumber()) {
        return Fail(path, "malformed profile trace event");
      }
    }
  }
  return true;
}

// Validates one derivation-tree node (and recursively its parents): a
// base node is an input leaf; a derived node must name the dependency
// that fired and the parent facts the trigger matched.
bool CheckExplainNode(const char* path, const obs::JsonValue& node) {
  if (!node.IsObject()) return Fail(path, "tree node is not an object");
  const obs::JsonValue* fact = node.Find("fact");
  if (fact == nullptr || !fact->IsString() || fact->string_value.empty()) {
    return Fail(path, "tree node lacks a string 'fact'");
  }
  const obs::JsonValue* event = node.Find("event");
  if (event == nullptr || !event->IsNumber()) {
    return Fail(path, "tree node '" + fact->string_value +
                          "' lacks a numeric 'event'");
  }
  const obs::JsonValue* kind = node.Find("kind");
  if (kind == nullptr || !kind->IsString() ||
      !IsKnownKind(kind->string_value)) {
    return Fail(path, "tree node '" + fact->string_value +
                          "' lacks a known 'kind'");
  }
  if (kind->string_value == "base") return true;  // input leaf
  const obs::JsonValue* dependency = node.Find("dependency");
  if (dependency == nullptr || !dependency->IsString() ||
      dependency->string_value.empty()) {
    return Fail(path, "derived node '" + fact->string_value +
                          "' does not name its dependency");
  }
  const obs::JsonValue* parents = node.Find("parents");
  if (kind->string_value == "fact") {
    if (parents == nullptr || !parents->IsArray() ||
        parents->items.empty()) {
      return Fail(path, "derived node '" + fact->string_value +
                            "' has no parents");
    }
  }
  if (parents != nullptr && parents->IsArray()) {
    for (const obs::JsonValue& parent : parents->items) {
      if (!CheckExplainNode(path, parent)) return false;
    }
  }
  return true;
}

// Validates a qimap_cli explain JSON file (--explain-out): a nonempty
// array of derivation trees.
bool CheckExplain(const char* path) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  if (!doc->IsArray()) return Fail(path, "top level is not an array");
  if (doc->items.empty()) return Fail(path, "no derivation trees");
  for (const obs::JsonValue& tree : doc->items) {
    if (!CheckExplainNode(path, tree)) return false;
  }
  return true;
}

// Validates a qimap_cli --progress-out JSONL stream: an optional leading
// `{"meta": ...}` header, then one heartbeat object per line with
// strictly increasing seq, a nonempty pipeline, and the full numeric
// counter set; the stream must contain at least one final heartbeat
// (every observed run emits one from its destructor).
bool CheckProgress(const char* path) {
  std::string text;
  if (!ReadFile(path, &text)) return Fail(path, "cannot read file");
  uint64_t last_seq = 0;
  bool saw_heartbeat = false;
  bool saw_final = false;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    Result<obs::JsonValue> beat = obs::ParseJson(line);
    if (!beat.ok()) {
      return Fail(path, "line " + std::to_string(line_no) + ": " +
                            beat.status().ToString());
    }
    std::string where = "line " + std::to_string(line_no);
    if (!beat->IsObject()) return Fail(path, where + ": not an object");
    const obs::JsonValue* meta = beat->Find("meta");
    if (meta != nullptr && beat->Find("seq") == nullptr) {
      // The run-metadata header line.
      if (line_no != 1) {
        return Fail(path, where + ": 'meta' header is only valid as the "
                              "first line");
      }
      if (!CheckMetaObject(path, *meta, where.c_str())) return false;
      continue;
    }
    const obs::JsonValue* seq = beat->Find("seq");
    if (seq == nullptr || !seq->IsNumber() || seq->number_value < 1) {
      return Fail(path, where + ": missing numeric 'seq' >= 1");
    }
    uint64_t seq_value = static_cast<uint64_t>(seq->number_value);
    if (seq_value <= last_seq) {
      return Fail(path, where + ": seq " + std::to_string(seq_value) +
                            " is not strictly increasing (previous " +
                            std::to_string(last_seq) + ")");
    }
    last_seq = seq_value;
    const obs::JsonValue* pipeline = beat->Find("pipeline");
    if (pipeline == nullptr || !pipeline->IsString() ||
        pipeline->string_value.empty()) {
      return Fail(path, where + ": missing string 'pipeline'");
    }
    const obs::JsonValue* final_flag = beat->Find("final");
    if (final_flag == nullptr ||
        final_flag->type != obs::JsonValue::Type::kBool) {
      return Fail(path, where + ": missing boolean 'final'");
    }
    if (final_flag->bool_value) saw_final = true;
    for (const char* key : {"steps", "facts", "nulls", "fired", "skipped",
                            "total_estimate", "elapsed_us", "eta_us"}) {
      double unused = 0;
      if (!GetCount(path, *beat, key, where, &unused)) return false;
    }
    const obs::JsonValue* fraction = beat->Find("budget_fraction");
    if (fraction == nullptr || !fraction->IsNumber() ||
        fraction->number_value > 1.0) {
      // -1 = no bounded budget; otherwise a consumed fraction in [0, 1].
      return Fail(path, where + ": missing 'budget_fraction' <= 1");
    }
    saw_heartbeat = true;
  }
  if (!saw_heartbeat) return Fail(path, "stream has no heartbeats");
  if (!saw_final) {
    return Fail(path, "stream has no final heartbeat — no run completed");
  }
  return true;
}

// Validates a run-ledger JSONL file (qimap_cli --ledger): one record per
// line with dense 1-based seq (AppendToLedger assigns them), a nonempty
// command, the run-metadata stamp, a budget object with an outcome, both
// fingerprints, and a counters object.
bool CheckLedger(const char* path) {
  std::string text;
  if (!ReadFile(path, &text)) return Fail(path, "cannot read file");
  uint64_t records = 0;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    Result<obs::JsonValue> record = obs::ParseJson(line);
    if (!record.ok()) {
      return Fail(path, "line " + std::to_string(line_no) + ": " +
                            record.status().ToString());
    }
    std::string where = "line " + std::to_string(line_no);
    if (!record->IsObject()) return Fail(path, where + ": not an object");
    ++records;
    const obs::JsonValue* seq = record->Find("seq");
    if (seq == nullptr || !seq->IsNumber() ||
        seq->number_value != static_cast<double>(records)) {
      return Fail(path, where + ": 'seq' is not the dense 1-based " +
                            std::to_string(records));
    }
    const obs::JsonValue* command = record->Find("command");
    if (command == nullptr || !command->IsString() ||
        command->string_value.empty()) {
      return Fail(path, where + ": missing string 'command'");
    }
    const obs::JsonValue* meta = record->Find("meta");
    if (meta == nullptr ||
        !CheckMetaObject(path, *meta, where.c_str())) {
      return meta == nullptr ? Fail(path, where + ": missing 'meta' stamp")
                             : false;
    }
    for (const char* key : {"mapping_fingerprint", "source_fingerprint"}) {
      const obs::JsonValue* fp = record->Find(key);
      if (fp == nullptr || !fp->IsString() || fp->string_value.empty()) {
        return Fail(path, where + ": missing string '" + key + "'");
      }
    }
    const obs::JsonValue* budget = record->Find("budget");
    if (budget == nullptr || !budget->IsObject()) {
      return Fail(path, where + ": missing 'budget' object");
    }
    const obs::JsonValue* outcome = budget->Find("outcome");
    if (outcome == nullptr || !outcome->IsString() ||
        outcome->string_value.empty()) {
      return Fail(path, where + ": 'budget' lacks a string 'outcome'");
    }
    for (const char* key : {"exit_code", "ts_us", "elapsed_seconds"}) {
      const obs::JsonValue* value = record->Find(key);
      if (value == nullptr || !value->IsNumber()) {
        return Fail(path, where + ": missing numeric '" + key + "'");
      }
    }
    const obs::JsonValue* counters = record->Find("counters");
    if (counters == nullptr || !counters->IsObject()) {
      return Fail(path, where + ": missing 'counters' object");
    }
    const obs::JsonValue* profile = record->Find("profile");
    if (profile == nullptr || !profile->IsArray()) {
      return Fail(path, where + ": missing 'profile' array");
    }
  }
  if (records == 0) return Fail(path, "ledger has no records");
  return true;
}

// Validates a `qimap_cli analyze --plan-out` document: a "plans" array of
// {dependency, plan} entries where each plan's "order" is a permutation
// of the step indexes, every step names a relation and a known access
// mode, probe steps list their probe columns, and every register
// reference stays inside the declared register frame.
bool CheckPlan(const char* path) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  if (!doc->IsObject()) return Fail(path, "top level is not an object");
  const obs::JsonValue* plans = doc->Find("plans");
  if (plans == nullptr || !plans->IsArray()) {
    return Fail(path, "missing 'plans' array");
  }
  if (plans->items.empty()) return Fail(path, "'plans' is empty");
  for (size_t p = 0; p < plans->items.size(); ++p) {
    std::string where = "plans[" + std::to_string(p) + "]";
    const obs::JsonValue& entry = plans->items[p];
    if (!entry.IsObject()) return Fail(path, where + ": not an object");
    const obs::JsonValue* dep = entry.Find("dependency");
    if (dep == nullptr || !dep->IsString() || dep->string_value.empty()) {
      return Fail(path, where + ": missing string 'dependency'");
    }
    const obs::JsonValue* plan = entry.Find("plan");
    if (plan == nullptr || !plan->IsObject()) {
      return Fail(path, where + ": missing 'plan' object");
    }
    const obs::JsonValue* registers = plan->Find("registers");
    if (registers == nullptr || !registers->IsArray()) {
      return Fail(path, where + ": plan lacks a 'registers' array");
    }
    const obs::JsonValue* stats_free = plan->Find("stats_free");
    if (stats_free == nullptr ||
        stats_free->type != obs::JsonValue::Type::kBool) {
      return Fail(path, where + ": plan lacks a boolean 'stats_free'");
    }
    const obs::JsonValue* steps = plan->Find("steps");
    const obs::JsonValue* order = plan->Find("order");
    if (steps == nullptr || !steps->IsArray() || steps->items.empty()) {
      return Fail(path, where + ": plan lacks a nonempty 'steps' array");
    }
    if (order == nullptr || !order->IsArray() ||
        order->items.size() != steps->items.size()) {
      return Fail(path,
                  where + ": 'order' must parallel 'steps'");
    }
    std::set<uint64_t> seen_atoms;
    for (const obs::JsonValue& o : order->items) {
      if (!o.IsNumber() || o.number_value < 0 ||
          o.number_value >= static_cast<double>(steps->items.size()) ||
          !seen_atoms.insert(static_cast<uint64_t>(o.number_value))
               .second) {
        return Fail(path, where + ": 'order' is not a permutation of the "
                              "step indexes");
      }
    }
    const size_t num_regs = registers->items.size();
    for (size_t s = 0; s < steps->items.size(); ++s) {
      std::string step_where = where + ".steps[" + std::to_string(s) + "]";
      const obs::JsonValue& step = steps->items[s];
      if (!step.IsObject()) return Fail(path, step_where + ": not object");
      const obs::JsonValue* relation = step.Find("relation");
      if (relation == nullptr || !relation->IsString() ||
          relation->string_value.empty()) {
        return Fail(path, step_where + ": missing string 'relation'");
      }
      const obs::JsonValue* mode = step.Find("mode");
      if (mode == nullptr || !mode->IsString() ||
          (mode->string_value != "point_lookup" &&
           mode->string_value != "probe" && mode->string_value != "scan")) {
        return Fail(path, step_where + ": 'mode' must be point_lookup, "
                              "probe, or scan");
      }
      const obs::JsonValue* probe_cols = step.Find("probe_cols");
      if (probe_cols == nullptr || !probe_cols->IsArray()) {
        return Fail(path, step_where + ": missing 'probe_cols' array");
      }
      if (mode->string_value == "probe" && probe_cols->items.empty()) {
        return Fail(path,
                    step_where + ": probe step lists no probe columns");
      }
      const obs::JsonValue* args = step.Find("args");
      if (args == nullptr || !args->IsArray()) {
        return Fail(path, step_where + ": missing 'args' array");
      }
      for (size_t a = 0; a < args->items.size(); ++a) {
        const obs::JsonValue& arg = args->items[a];
        std::string arg_where =
            step_where + ".args[" + std::to_string(a) + "]";
        if (!arg.IsObject()) return Fail(path, arg_where + ": not object");
        const obs::JsonValue* literal = arg.Find("literal");
        const obs::JsonValue* check = arg.Find("check");
        const obs::JsonValue* bind = arg.Find("bind");
        int kinds = (literal != nullptr) + (check != nullptr) +
                    (bind != nullptr);
        if (kinds != 1) {
          return Fail(path, arg_where + ": exactly one of literal/check/"
                                "bind required");
        }
        for (const obs::JsonValue* reg : {check, bind}) {
          if (reg != nullptr &&
              (!reg->IsNumber() || reg->number_value < 0 ||
               reg->number_value >= static_cast<double>(num_regs))) {
            return Fail(path, arg_where + ": register index out of range");
          }
        }
      }
    }
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: telemetry_check [--trace FILE] [--metrics FILE] "
               "[--journal FILE] [--explain FILE]\n"
               "                       [--parallel FILE] [--sharded FILE] "
               "[--budget FILE] "
               "[--incremental FILE]\n"
               "                       [--containment FILE] [--profile "
               "FILE] [--progress FILE] [--ledger FILE]\n"
               "                       [--plan FILE] "
               "[--compare FILE_A FILE_B]\n"
               "       telemetry_check <trace.json> <metrics.json>\n");
  return 2;
}

int Main(int argc, char** argv) {
  bool ok = true;
  bool checked = false;
  if (argc == 3 && argv[1][0] != '-') {
    // Legacy positional form.
    ok = CheckTrace(argv[1]);
    ok = CheckMetrics(argv[2]) && ok;
    checked = true;
  } else {
    // Every check is a repeatable `--flag FILE` pair, run in command-line
    // order; --compare consumes two operands (tools/arg_parse.h).
    tools::ArgSpec spec;
    for (const char* name :
         {"trace", "metrics", "journal", "explain", "parallel", "sharded",
          "budget", "incremental", "containment", "profile",
          "progress", "ledger", "plan"}) {
      spec.multi_value_flags[name] = 1;
    }
    spec.multi_value_flags["compare"] = 2;
    tools::ParsedArgs args;
    std::string error;
    if (!tools::ParseArgs(argc, argv, 1, spec, &args, &error)) {
      std::fprintf(stderr, "telemetry_check: %s\n", error.c_str());
      return Usage();
    }
    for (const tools::ParsedArgs::Occurrence& occ : args.occurrences) {
      const char* file = occ.values[0].c_str();
      if (occ.flag == "trace") {
        ok = CheckTrace(file) && ok;
      } else if (occ.flag == "metrics") {
        ok = CheckMetrics(file) && ok;
      } else if (occ.flag == "journal") {
        ok = CheckJournal(file) && ok;
      } else if (occ.flag == "explain") {
        ok = CheckExplain(file) && ok;
      } else if (occ.flag == "parallel") {
        ok = CheckParallel(file) && ok;
      } else if (occ.flag == "sharded") {
        ok = CheckSharded(file) && ok;
      } else if (occ.flag == "budget") {
        ok = CheckBudget(file) && ok;
      } else if (occ.flag == "incremental") {
        ok = CheckIncremental(file) && ok;
      } else if (occ.flag == "containment") {
        ok = CheckContainment(file) && ok;
      } else if (occ.flag == "profile") {
        ok = CheckProfile(file) && ok;
      } else if (occ.flag == "progress") {
        ok = CheckProgress(file) && ok;
      } else if (occ.flag == "ledger") {
        ok = CheckLedger(file) && ok;
      } else if (occ.flag == "plan") {
        ok = CheckPlan(file) && ok;
      } else if (occ.flag == "compare") {
        ok = CheckCompare(file, occ.values[1].c_str()) && ok;
      }
      checked = true;
    }
  }
  if (!checked) return Usage();
  if (ok) std::printf("telemetry_check: OK\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace qimap

int main(int argc, char** argv) { return qimap::Main(argc, argv); }
