// telemetry_check — validates the telemetry files qimap writes.
//
//   telemetry_check [--record F] [--ledger F] [--require F COUNTER]
//                   [--trace F] [--journal F] [--explain F]
//                   [--progress F] [--plan F]
//
// Every flag repeats; checks run in command-line order and the exit code
// is 0 iff every one passes (diagnostics go to stderr):
//   --record   a run record (qimap_cli / qimap_gen --record-out, or a
//              bench's BENCH_<name>.json): every field of the schema in
//              docs/observability.md ("Run record"); when `profile` is not
//              null, also nonempty deps with dense sequential ids and
//              per-atom rows of the right length whose probe/scan/unify
//              sums equal the dependency totals
//   --ledger   run-ledger JSONL (--ledger / QIMAP_LEDGER): every line a
//              valid record, with `seq` dense and 1-based
//   --require  the record's counter COUNTER is nonzero; `prefix.*`
//              requires at least one nonzero counter with that prefix
//   --trace    well-formed Chrome trace-event JSON with >= 1 event
//   --journal  provenance JSONL: monotone event ids, known kinds, every
//              parent/null reference resolves to an earlier event
//   --explain  qimap_cli explain JSON: every tree bottoms out in base
//              facts, and every derived node names its dependency and
//              parents
//   --progress qimap_cli --progress-out JSONL: heartbeat objects with
//              strictly increasing seq, a nonempty pipeline, numeric
//              step/fact/null/fired/skipped counters, and at least one
//              final heartbeat
//   --plan     qimap_cli analyze --plan-out JSON: a plans array whose
//              entries name their dependency and carry a compiled plan —
//              step order a permutation, known access modes, probe steps
//              with probe columns, register references in range
// Journal and progress streams may start with a `{"meta": {...}}` header
// line (the run-metadata stamp); it is validated, not counted.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/profiler.h"
#include "arg_parse.h"

namespace qimap {
namespace {

bool Fail(const char* file, const std::string& why) {
  std::fprintf(stderr, "telemetry_check: %s: %s\n", file, why.c_str());
  return false;
}

// Parses a JSONL file and hands each nonempty line's object to `visit`
// with its "line N" label; stops at the first line that fails to parse,
// is not an object, or fails `visit`.
bool ForEachJsonLine(
    const char* path,
    const std::function<bool(const obs::JsonValue&, size_t,
                             const std::string&)>& visit) {
  Result<std::vector<std::pair<size_t, obs::JsonValue>>> lines =
      obs::ParseJsonLinesFile(path);
  if (!lines.ok()) return Fail(path, lines.status().message());
  for (const auto& [line_no, value] : *lines) {
    std::string where = "line " + std::to_string(line_no);
    if (!value.IsObject()) return Fail(path, where + ": not an object");
    if (!visit(value, line_no, where)) return false;
  }
  return true;
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

// Reads a required non-negative number out of an object.
bool GetCount(const char* path, const obs::JsonValue& obj, const char* key,
              const std::string& where, double* out = nullptr) {
  const obs::JsonValue* value = obj.Find(key);
  if (value == nullptr || !value->IsNumber() || value->number_value < 0) {
    return Fail(path, where + ": missing non-negative numeric '" + key +
                          "'");
  }
  if (out != nullptr) *out = value->number_value;
  return true;
}

bool GetString(const char* path, const obs::JsonValue& obj, const char* key,
               const std::string& where) {
  const obs::JsonValue* value = obj.Find(key);
  if (value == nullptr || !value->IsString() || value->string_value.empty()) {
    return Fail(path, where + ": missing string '" + key + "'");
  }
  return true;
}

// Validates a run-metadata stamp: the producing library's version and
// its build type. Other members (older stamps carry `threads`) are
// ignored.
bool CheckMetaObject(const char* path, const obs::JsonValue& meta,
                     const std::string& where) {
  if (!meta.IsObject()) return Fail(path, where + ": 'meta' is not an object");
  return GetString(path, meta, "qimap_version", where + " meta") &&
         GetString(path, meta, "build_type", where + " meta");
}

// Validates a record's non-null `profile`: a nonempty deps array with
// dense sequential ids and — the load-bearing invariant — per-atom
// probe/scan/unify rows that sum exactly to the per-dependency body
// totals (the profiler computes totals as those sums, so any drift means
// merge or attribution corruption).
bool CheckProfile(const char* path, const obs::JsonValue& profile,
                  const std::string& where) {
  if (!profile.IsObject()) {
    return Fail(path, where + ": 'profile' is neither null nor an object");
  }
  const obs::JsonValue* truncated = profile.Find("truncated");
  if (truncated == nullptr ||
      truncated->type != obs::JsonValue::Type::kBool) {
    return Fail(path, where + ": profile lacks a boolean 'truncated'");
  }
  const obs::JsonValue* deps = profile.Find("deps");
  if (deps == nullptr || !deps->IsArray()) {
    return Fail(path, where + ": profile lacks a 'deps' array");
  }
  if (deps->items.empty()) {
    return Fail(path, where + ": profile 'deps' is empty (nothing was "
                              "profiled)");
  }
  for (size_t i = 0; i < deps->items.size(); ++i) {
    const obs::JsonValue& dep = deps->items[i];
    std::string dep_where = where + " dep " + std::to_string(i);
    if (!dep.IsObject()) return Fail(path, dep_where + ": not an object");
    const obs::JsonValue* id = dep.Find("id");
    if (id == nullptr || !id->IsNumber() ||
        id->number_value != static_cast<double>(i)) {
      // Registration is serial, so snapshot ids are dense and in order.
      return Fail(path, dep_where + ": 'id' is not the dense sequential " +
                            std::to_string(i));
    }
    double body_atoms = 0;
    if (!GetString(path, dep, "pipeline", dep_where) ||
        !GetString(path, dep, "dependency", dep_where) ||
        !GetCount(path, dep, "body_atoms", dep_where, &body_atoms)) {
      return false;
    }
    const obs::JsonValue* totals = dep.Find("totals");
    if (totals == nullptr || !totals->IsObject()) {
      return Fail(path, dep_where + ": missing 'totals' object");
    }
    double backtracks = 0, probe_rows = 0, scan_rows = 0;
    if (!GetCount(path, *totals, "backtracks", dep_where, &backtracks) ||
        !GetCount(path, *totals, "probe_rows", dep_where, &probe_rows) ||
        !GetCount(path, *totals, "scan_rows", dep_where, &scan_rows)) {
      return false;
    }
    for (const char* key : {"searches", "matches", "fired", "skipped"}) {
      if (!GetCount(path, *totals, key, dep_where)) return false;
    }
    const obs::JsonValue* atoms = dep.Find("atoms");
    if (atoms == nullptr || !atoms->IsArray()) {
      return Fail(path, dep_where + ": missing 'atoms' array");
    }
    size_t want_atoms = static_cast<size_t>(body_atoms);
    if (want_atoms > obs::kMaxProfileAtoms) {
      want_atoms = obs::kMaxProfileAtoms;
    }
    if (atoms->items.size() != want_atoms) {
      return Fail(path, dep_where + ": 'atoms' has " +
                            std::to_string(atoms->items.size()) +
                            " rows, expected " + std::to_string(want_atoms));
    }
    double sum_fails = 0, sum_probe_rows = 0, sum_scan_rows = 0;
    for (size_t a = 0; a < atoms->items.size(); ++a) {
      const obs::JsonValue& atom = atoms->items[a];
      std::string atom_where = dep_where + " atom " + std::to_string(a);
      if (!atom.IsObject()) {
        return Fail(path, atom_where + ": not an object");
      }
      const obs::JsonValue* pos = atom.Find("pos");
      if (pos == nullptr || !pos->IsNumber() ||
          pos->number_value != static_cast<double>(a)) {
        return Fail(path, atom_where + ": 'pos' mismatch");
      }
      double a_probe = 0, a_scan = 0, a_fails = 0;
      if (!GetCount(path, atom, "probes", atom_where) ||
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
                    dep_where.c_str(), field, sum, total);
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
  return true;
}

bool IsFingerprint(const obs::JsonValue* value) {
  if (value == nullptr || !value->IsString() ||
      value->string_value.size() != 16) {
    return false;
  }
  for (char c : value->string_value) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

// Validates one run record (obs/run_record.h) field by field. `seq` is
// optional here; CheckLedger requires it.
bool CheckRecordValue(const char* path, const obs::JsonValue& record,
                      const std::string& where) {
  if (!record.IsObject()) return Fail(path, where + ": not an object");
  const obs::JsonValue* meta = record.Find("meta");
  if (meta == nullptr) return Fail(path, where + ": missing 'meta' stamp");
  if (!GetString(path, record, "command", where) ||
      !CheckMetaObject(path, *meta, where)) {
    return false;
  }
  for (const char* key : {"exit_code", "elapsed_seconds", "ts_us"}) {
    const obs::JsonValue* value = record.Find(key);
    if (value == nullptr || !value->IsNumber()) {
      return Fail(path, where + ": missing numeric '" + key + "'");
    }
  }
  for (const char* key : {"mapping_fingerprint", "source_fingerprint"}) {
    if (!IsFingerprint(record.Find(key))) {
      return Fail(path, where + ": '" + key +
                            "' is not a 16-digit hex string");
    }
  }
  const obs::JsonValue* budget = record.Find("budget");
  if (budget == nullptr || !budget->IsObject()) {
    return Fail(path, where + ": missing 'budget' object");
  }
  if (!GetString(path, *budget, "outcome", where + " budget")) return false;
  for (const char* key : {"steps", "nulls", "bytes"}) {
    if (!GetCount(path, *budget, key, where + " budget")) return false;
  }
  if (const obs::JsonValue* phases = record.Find("phases")) {
    if (!phases->IsArray()) {
      return Fail(path, where + ": 'phases' is not an array");
    }
    for (const obs::JsonValue& phase : phases->items) {
      std::string phase_where = where + " phase";
      if (!phase.IsObject()) {
        return Fail(path, phase_where + ": not an object");
      }
      if (!GetString(path, phase, "name", phase_where) ||
          !GetCount(path, phase, "seconds", phase_where)) {
        return false;
      }
    }
  }
  const obs::JsonValue* counters = record.Find("counters");
  if (counters == nullptr || !counters->IsObject()) {
    return Fail(path, where + ": missing 'counters' object");
  }
  for (const auto& [name, value] : counters->members) {
    if (!value.IsNumber() || value.number_value < 0) {
      return Fail(path, where + ": counter '" + name +
                            "' is not a non-negative number");
    }
  }
  const obs::JsonValue* profile = record.Find("profile");
  if (profile == nullptr) return Fail(path, where + ": missing 'profile'");
  if (profile->type != obs::JsonValue::Type::kNull &&
      !CheckProfile(path, *profile, where)) {
    return false;
  }
  const obs::JsonValue* cost_model = record.Find("cost_model");
  if (cost_model == nullptr ||
      (cost_model->type != obs::JsonValue::Type::kNull &&
       !cost_model->IsObject())) {
    return Fail(path, where + ": 'cost_model' must be null or an object");
  }
  return true;
}

bool LoadRecord(const char* path, obs::JsonValue* out) {
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  if (!doc.ok()) return Fail(path, doc.status().ToString());
  *out = std::move(doc).value();
  return true;
}

bool CheckRecord(const char* path) {
  obs::JsonValue record;
  return LoadRecord(path, &record) &&
         CheckRecordValue(path, record, "record");
}

// Validates a run-ledger JSONL file: every line a valid record whose seq
// is the line's dense 1-based position (AppendToLedger assigns them).
bool CheckLedger(const char* path) {
  uint64_t records = 0;
  bool ok = ForEachJsonLine(path, [&](const obs::JsonValue& record, size_t,
                                      const std::string& where) {
    ++records;
    const obs::JsonValue* seq = record.Find("seq");
    if (seq == nullptr || !seq->IsNumber() ||
        seq->number_value != static_cast<double>(records)) {
      return Fail(path, where + ": 'seq' is not the dense 1-based " +
                            std::to_string(records));
    }
    return CheckRecordValue(path, record, where);
  });
  if (ok && records == 0) return Fail(path, "ledger has no records");
  return ok;
}

// True iff `counters` has at least one key with the given prefix mapped
// to a number > 0.
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

// --require FILE COUNTER: the record's counter is nonzero; a trailing
// `.*` turns COUNTER into a prefix that some nonzero counter must have.
bool CheckRequire(const char* path, const std::string& counter) {
  obs::JsonValue record;
  if (!LoadRecord(path, &record)) return false;
  const obs::JsonValue* counters = record.Find("counters");
  if (counters == nullptr || !counters->IsObject()) {
    return Fail(path, "missing 'counters' object");
  }
  bool pattern = counter.size() > 2 &&
                 counter.compare(counter.size() - 2, 2, ".*") == 0;
  if (pattern) {
    if (!HasNonzeroWithPrefix(*counters,
                              counter.substr(0, counter.size() - 1))) {
      return Fail(path, "no nonzero '" + counter + "' counter");
    }
    return true;
  }
  const obs::JsonValue* value = counters->Find(counter);
  if (value == nullptr || !value->IsNumber() || value->number_value <= 0) {
    return Fail(path, "counter '" + counter + "' is missing or zero");
  }
  return true;
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

// Validates one provenance JSONL file (qimap_cli --journal-out): an
// optional leading `{"meta": ...}` header, then one JSON object per line
// with strictly increasing ids, known kinds, and every parent/null
// reference resolvable to an earlier event.
bool CheckJournal(const char* path) {
  std::set<uint64_t> seen;
  uint64_t last_id = 0;
  bool ok = ForEachJsonLine(path, [&](const obs::JsonValue& event,
                                      size_t line_no,
                                      const std::string& where) {
    const obs::JsonValue* meta = event.Find("meta");
    if (meta != nullptr && event.Find("id") == nullptr) {
      // The run-metadata header line.
      if (line_no != 1) {
        return Fail(path, where + ": 'meta' header is only valid as the "
                                  "first line");
      }
      return CheckMetaObject(path, *meta, where);
    }
    const obs::JsonValue* id = event.Find("id");
    if (id == nullptr || !id->IsNumber() || id->number_value < 1) {
      return Fail(path, where + ": missing numeric 'id' >= 1");
    }
    uint64_t id_value = static_cast<uint64_t>(id->number_value);
    if (id_value <= last_id) {
      return Fail(path, where + ": id " + std::to_string(id_value) +
                            " is not strictly increasing (previous " +
                            std::to_string(last_id) + ")");
    }
    last_id = id_value;
    const obs::JsonValue* kind = event.Find("kind");
    if (kind == nullptr || !kind->IsString() ||
        !IsKnownKind(kind->string_value)) {
      return Fail(path, where + ": missing or unknown 'kind'");
    }
    const obs::JsonValue* run = event.Find("run");
    if (run == nullptr || !run->IsNumber()) {
      return Fail(path, where + ": missing numeric 'run'");
    }
    if (!GetString(path, event, "pipeline", where) ||
        !GetString(path, event, "fact", where) ||
        !CheckIdArray(path, event, "parents", id_value, seen) ||
        !CheckIdArray(path, event, "nulls", id_value, seen)) {
      return false;
    }
    seen.insert(id_value);
    return true;
  });
  if (ok && seen.empty()) return Fail(path, "journal has no events");
  return ok;
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
  uint64_t last_seq = 0;
  bool saw_heartbeat = false;
  bool saw_final = false;
  bool ok = ForEachJsonLine(path, [&](const obs::JsonValue& beat,
                                      size_t line_no,
                                      const std::string& where) {
    const obs::JsonValue* meta = beat.Find("meta");
    if (meta != nullptr && beat.Find("seq") == nullptr) {
      // The run-metadata header line.
      if (line_no != 1) {
        return Fail(path, where + ": 'meta' header is only valid as the "
                                  "first line");
      }
      return CheckMetaObject(path, *meta, where);
    }
    const obs::JsonValue* seq = beat.Find("seq");
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
    if (!GetString(path, beat, "pipeline", where)) return false;
    const obs::JsonValue* final_flag = beat.Find("final");
    if (final_flag == nullptr ||
        final_flag->type != obs::JsonValue::Type::kBool) {
      return Fail(path, where + ": missing boolean 'final'");
    }
    if (final_flag->bool_value) saw_final = true;
    for (const char* key : {"steps", "facts", "nulls", "fired", "skipped",
                            "total_estimate", "elapsed_us", "eta_us"}) {
      if (!GetCount(path, beat, key, where)) return false;
    }
    const obs::JsonValue* fraction = beat.Find("budget_fraction");
    if (fraction == nullptr || !fraction->IsNumber() ||
        fraction->number_value > 1.0) {
      // -1 = no bounded budget; otherwise a consumed fraction in [0, 1].
      return Fail(path, where + ": missing 'budget_fraction' <= 1");
    }
    saw_heartbeat = true;
    return true;
  });
  if (!ok) return false;
  if (!saw_heartbeat) return Fail(path, "stream has no heartbeats");
  if (!saw_final) {
    return Fail(path, "stream has no final heartbeat — no run completed");
  }
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
               "usage: telemetry_check [--record FILE] [--ledger FILE] "
               "[--require FILE COUNTER]\n"
               "                       [--trace FILE] [--journal FILE] "
               "[--explain FILE]\n"
               "                       [--progress FILE] [--plan FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  // Every check is a repeatable `--flag FILE` pair, run in command-line
  // order; --require consumes two operands (tools/arg_parse.h).
  tools::ArgSpec spec;
  for (const char* name : {"record", "ledger", "trace", "journal",
                           "explain", "progress", "plan"}) {
    spec.multi_value_flags[name] = 1;
  }
  spec.multi_value_flags["require"] = 2;
  tools::ParsedArgs args;
  std::string error;
  if (!tools::ParseArgs(argc, argv, 1, spec, &args, &error)) {
    std::fprintf(stderr, "telemetry_check: %s\n", error.c_str());
    return Usage();
  }
  if (args.occurrences.empty()) return Usage();
  const std::map<std::string, bool (*)(const char*)> kFileChecks = {
      {"record", CheckRecord},     {"ledger", CheckLedger},
      {"trace", CheckTrace},       {"journal", CheckJournal},
      {"explain", CheckExplain},   {"progress", CheckProgress},
      {"plan", CheckPlan}};
  bool ok = true;
  for (const tools::ParsedArgs::Occurrence& occ : args.occurrences) {
    const char* file = occ.values[0].c_str();
    if (occ.flag == "require") {
      ok = CheckRequire(file, occ.values[1]) && ok;
    } else {
      ok = kFileChecks.at(occ.flag)(file) && ok;
    }
  }
  if (ok) std::printf("telemetry_check: OK\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace qimap

int main(int argc, char** argv) { return qimap::Main(argc, argv); }
