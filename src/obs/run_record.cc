#include "obs/run_record.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "base/version.h"
#include "obs/json.h"

namespace qimap {
namespace obs {
namespace {

// Fault hook: when >= 0, the next append writes only this many bytes of
// the staged temp file and bails before the rename.
std::atomic<long long> g_fail_after_bytes{-1};

const char* BuildType() {
#if defined(QIMAP_BUILD_TYPE)
  return QIMAP_BUILD_TYPE;
#else
  return "unknown";
#endif
}

void AppendUint(std::string* out, const char* key, uint64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), ", \"%s\": %" PRIu64, key, value);
  *out += buf;
}

void AppendSeconds(std::string* out, const char* key, double seconds) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), ", \"%s\": %.6f", key, seconds);
  *out += buf;
}

std::string FingerprintHex(uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fp);
  return buf;
}

uint64_t NumberOr(const JsonValue* v, uint64_t fallback) {
  if (v == nullptr || !v->IsNumber()) return fallback;
  return static_cast<uint64_t>(v->number_value);
}

std::string StringOr(const JsonValue* v, const std::string& fallback) {
  if (v == nullptr || !v->IsString()) return fallback;
  return v->string_value;
}

}  // namespace

std::string RunRecord::ToJson(bool canonical) const {
  std::string out = "{";
  if (seq != 0) out += "\"seq\": " + std::to_string(seq) + ", ";
  out += "\"command\": ";
  AppendJsonString(&out, command);
  if (!canonical) out += ", \"meta\": " + RunMetaJson();
  out += ", \"exit_code\": " + std::to_string(exit_code);
  if (!canonical) {
    AppendSeconds(&out, "elapsed_seconds", elapsed_seconds);
    AppendUint(&out, "ts_us", ts_us);
  }
  out += ", \"mapping_fingerprint\": \"" +
         FingerprintHex(mapping_fingerprint) + "\"";
  out += ", \"source_fingerprint\": \"" + FingerprintHex(source_fingerprint) +
         "\"";
  out += ", \"budget\": {\"outcome\": ";
  AppendJsonString(&out, budget_outcome);
  AppendUint(&out, "steps", budget_steps);
  AppendUint(&out, "nulls", budget_nulls);
  AppendUint(&out, "bytes", budget_bytes);
  out += "}";
  if (!canonical && !phases.empty()) {
    out += ", \"phases\": [";
    for (size_t i = 0; i < phases.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"name\": ";
      AppendJsonString(&out, phases[i].name);
      AppendSeconds(&out, "seconds", phases[i].seconds);
      out += "}";
    }
    out += "]";
  }
  out += ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.counters) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(&out, name);
    out += ": " + std::to_string(value);
  }
  out += "}";
  out += ", \"profile\": ";
  out += profile.has_value() ? profile->ToJson(canonical) : "null";
  out += ", \"cost_model\": ";
  out += cost_model_json.empty() ? "null" : cost_model_json;
  out += "}";
  return out;
}

RunRecord CollectRunRecord(const std::string& command, const Budget* budget,
                           int exit_code, double elapsed_seconds) {
  RunRecord record;
  record.command = command;
  record.exit_code = exit_code;
  record.elapsed_seconds = elapsed_seconds;
  record.ts_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  if (budget != nullptr) {
    record.budget_outcome = budget->exhausted()
                                ? BudgetLimitName(budget->tripped())
                                : "ok";
    record.budget_steps = budget->steps();
    record.budget_nulls = budget->nulls();
    record.budget_bytes = budget->memory_bytes();
  }
  record.metrics = SnapshotMetrics();
  if (Profiler::Enabled()) record.profile = Profiler::Snapshot();
  return record;
}

void FailNextAppendForTest(size_t bytes) {
  g_fail_after_bytes.store(static_cast<long long>(bytes),
                           std::memory_order_relaxed);
}

namespace {

// Serializes whole read-modify-rename append cycles across processes and
// threads with an exclusive flock on `<path>.lock`. The lock file is a
// separate, stable inode (the ledger itself is replaced by rename, so
// locking it directly would race the swap), and flock drops the lock
// automatically when the descriptor closes — including on a crash, so a
// killed writer never wedges the ledger. Appends without the lock (two
// processes appending at once, e.g. parallel ctest legs or a bench run
// next to a CLI run) read-modify-rename over each other and silently
// drop records.
class LedgerFileLock {
 public:
  explicit LedgerFileLock(const std::string& path) {
    fd_ = ::open((path + ".lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                 0644);
    if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  LedgerFileLock(const LedgerFileLock&) = delete;
  LedgerFileLock& operator=(const LedgerFileLock&) = delete;
  ~LedgerFileLock() {
    if (fd_ >= 0) ::close(fd_);  // releases the flock
  }
  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

}  // namespace

bool AppendToLedger(const std::string& path, RunRecord* record) {
  LedgerFileLock lock(path);
  if (!lock.held()) return false;
  std::string existing;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      existing.append(buf, n);
    }
    std::fclose(f);
  }
  // Every string in a record goes through AppendJsonString, which never
  // emits a raw newline, so counting newlines counts records.
  uint64_t records = 0;
  for (char c : existing) {
    if (c == '\n') ++records;
  }
  record->seq = records + 1;
  std::string content = existing + record->ToJson(/*canonical=*/false) + "\n";

  std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) return false;
  long long fail_after =
      g_fail_after_bytes.exchange(-1, std::memory_order_relaxed);
  size_t to_write = content.size();
  if (fail_after >= 0 && static_cast<size_t>(fail_after) < to_write) {
    to_write = static_cast<size_t>(fail_after);
  }
  bool ok = std::fwrite(content.data(), 1, to_write, out) == to_write;
  ok = std::fclose(out) == 0 && ok;
  if (fail_after >= 0) {
    // Simulated crash mid-write: the torn bytes stay in the temp file,
    // the real ledger is untouched, and no rename happens — exactly the
    // failure mode the atomic append protects against.
    return false;
  }
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool PublishRunRecord(RunRecord* record, const std::string& record_path,
                      const std::string& ledger_path, const char* tool) {
  bool ok = true;
  if (!record_path.empty() &&
      !WriteFileAtomic(record_path, record->ToJson(/*canonical=*/false) +
                                        "\n")) {
    std::fprintf(stderr, "%s: cannot write record to '%s'\n", tool,
                 record_path.c_str());
    ok = false;
    if (record->exit_code == 0) record->exit_code = 1;
  }
  if (!ledger_path.empty() && !AppendToLedger(ledger_path, record)) {
    std::fprintf(stderr, "%s: cannot append to ledger '%s'\n", tool,
                 ledger_path.c_str());
    ok = false;
  }
  return ok;
}

std::vector<std::string> DiffLedgerEntries(const JsonValue& a,
                                           const JsonValue& b) {
  std::vector<std::string> diffs;
  char buf[256];

  auto diff_uint = [&](const std::string& label, uint64_t va, uint64_t vb) {
    if (va == vb) return;
    long long delta =
        static_cast<long long>(vb) - static_cast<long long>(va);
    std::snprintf(buf, sizeof(buf),
                  "%s: %" PRIu64 " -> %" PRIu64 " (%+lld)", label.c_str(),
                  va, vb, delta);
    diffs.push_back(buf);
  };

  const std::string fp_a = StringOr(a.Find("mapping_fingerprint"), "");
  const std::string fp_b = StringOr(b.Find("mapping_fingerprint"), "");
  if (fp_a != fp_b) {
    diffs.push_back("mapping_fingerprint: " + fp_a + " -> " + fp_b +
                    " (different mappings)");
  }
  const std::string src_a = StringOr(a.Find("source_fingerprint"), "");
  const std::string src_b = StringOr(b.Find("source_fingerprint"), "");
  if (src_a != src_b) {
    diffs.push_back("source_fingerprint: " + src_a + " -> " + src_b +
                    " (different source instances)");
  }

  const JsonValue* budget_a = a.Find("budget");
  const JsonValue* budget_b = b.Find("budget");
  const std::string outcome_a =
      budget_a ? StringOr(budget_a->Find("outcome"), "") : "";
  const std::string outcome_b =
      budget_b ? StringOr(budget_b->Find("outcome"), "") : "";
  if (outcome_a != outcome_b) {
    diffs.push_back("budget outcome: " + outcome_a + " -> " + outcome_b);
  }
  for (const char* key : {"steps", "nulls", "bytes"}) {
    diff_uint(std::string("budget ") + key,
              NumberOr(budget_a ? budget_a->Find(key) : nullptr, 0),
              NumberOr(budget_b ? budget_b->Find(key) : nullptr, 0));
  }

  diff_uint("exit_code", NumberOr(a.Find("exit_code"), 0),
            NumberOr(b.Find("exit_code"), 0));

  // Counters: union of keys.
  std::map<std::string, std::pair<uint64_t, uint64_t>> counters;
  if (const JsonValue* ca = a.Find("counters"); ca && ca->IsObject()) {
    for (const auto& kv : ca->members) {
      counters[kv.first].first = NumberOr(&kv.second, 0);
    }
  }
  if (const JsonValue* cb = b.Find("counters"); cb && cb->IsObject()) {
    for (const auto& kv : cb->members) {
      counters[kv.first].second = NumberOr(&kv.second, 0);
    }
  }
  for (const auto& kv : counters) {
    diff_uint("counter " + kv.first, kv.second.first, kv.second.second);
  }

  // Profile: keyed by (pipeline, dependency), non-timing totals.
  constexpr const char* kProfileFields[] = {"searches", "matches",
                                            "backtracks", "fired", "skipped"};
  std::map<std::string, std::pair<std::map<std::string, uint64_t>,
                                  std::map<std::string, uint64_t>>>
      deps;
  auto load_profile = [&](const JsonValue& record, bool into_a) {
    const JsonValue* profile = record.Find("profile");
    const JsonValue* rows =
        profile != nullptr ? profile->Find("deps") : nullptr;
    if (rows == nullptr || !rows->IsArray()) return;
    for (const JsonValue& dep : rows->items) {
      std::string key = StringOr(dep.Find("pipeline"), "") + " :: " +
                        StringOr(dep.Find("dependency"), "");
      const JsonValue* totals = dep.Find("totals");
      auto& digest = into_a ? deps[key].first : deps[key].second;
      for (const char* field : kProfileFields) {
        digest[field] =
            NumberOr(totals != nullptr ? totals->Find(field) : nullptr, 0);
      }
    }
  };
  load_profile(a, true);
  load_profile(b, false);
  for (auto& [key, digests] : deps) {
    for (const char* field : kProfileFields) {
      diff_uint("profile " + key + " " + field, digests.first[field],
                digests.second[field]);
    }
  }

  // Cost model: total facts plus per-relation row counts.
  const JsonValue* cm_a = a.Find("cost_model");
  const JsonValue* cm_b = b.Find("cost_model");
  bool has_a = cm_a != nullptr && cm_a->IsObject();
  bool has_b = cm_b != nullptr && cm_b->IsObject();
  if (has_a != has_b) {
    diffs.push_back(std::string("cost_model: ") +
                    (has_a ? "present" : "absent") + " -> " +
                    (has_b ? "present" : "absent"));
  } else if (has_a && has_b) {
    diff_uint("cost_model total_facts", NumberOr(cm_a->Find("total_facts"), 0),
              NumberOr(cm_b->Find("total_facts"), 0));
    std::map<std::string, std::pair<uint64_t, uint64_t>> rows;
    auto load_rows = [&](const JsonValue* cm, bool into_a) {
      const JsonValue* rels = cm->Find("relations");
      if (rels == nullptr || !rels->IsArray()) return;
      for (const JsonValue& rel : rels->items) {
        std::string name = StringOr(rel.Find("name"), "");
        uint64_t n = NumberOr(rel.Find("rows"), 0);
        if (into_a) {
          rows[name].first = n;
        } else {
          rows[name].second = n;
        }
      }
    };
    load_rows(cm_a, true);
    load_rows(cm_b, false);
    for (const auto& kv : rows) {
      diff_uint("cost_model rows " + kv.first, kv.second.first,
                kv.second.second);
    }
  }

  return diffs;
}

std::string RunMetaJson() {
  std::string out = "{\"qimap_version\": ";
  AppendJsonString(&out, VersionString());
  out += ", \"build_type\": ";
  AppendJsonString(&out, BuildType());
  out += "}";
  return out;
}

bool WriteFileAtomic(const std::string& path, const std::string& data) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace obs
}  // namespace qimap
