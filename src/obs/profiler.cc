#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <mutex>

#include "obs/json.h"

namespace qimap {
namespace obs {
namespace {

// Fixed per-shard capacity, like the metrics shards: no reallocation, so
// snapshot readers can walk a shard without synchronizing with its
// writer. Registrations past the cap are accepted but their updates are
// dropped (and the snapshot flags the truncation).
constexpr size_t kMaxProfileDeps = 512;

struct AtomCells {
  std::atomic<uint64_t> probes{0};
  std::atomic<uint64_t> probe_rows{0};
  std::atomic<uint64_t> scan_rows{0};
  std::atomic<uint64_t> unify_fails{0};
};

struct DepCells {
  std::atomic<uint64_t> searches{0};
  std::atomic<uint64_t> matches{0};
  std::atomic<uint64_t> backtracks{0};
  std::atomic<uint64_t> probe_rows{0};
  std::atomic<uint64_t> scan_rows{0};
  std::atomic<uint64_t> triggers_found{0};
  std::atomic<uint64_t> fired{0};
  std::atomic<uint64_t> skipped{0};
  std::atomic<uint64_t> nulls_minted{0};
  std::atomic<uint64_t> facts_added{0};
  std::atomic<uint64_t> rhs_searches{0};
  std::atomic<uint64_t> rhs_backtracks{0};
  std::atomic<uint64_t> time_us{0};
  AtomCells atoms[kMaxProfileAtoms];
};

// One thread's slice of every dependency. Single writer, many readers,
// relaxed atomics throughout. ~240KB, so unlike the metrics shards these
// are pooled: a thread returns its shard on exit and the next thread
// reuses it (counts are cumulative; Reset zeroes the pool).
struct Shard {
  DepCells deps[kMaxProfileDeps];
};

struct Registry {
  std::mutex mu;  // guards dep metadata and the shard lists
  std::vector<std::string> pipelines;
  std::vector<std::string> texts;
  std::map<std::pair<std::string, std::string>, uint32_t> by_key;
  std::vector<Shard*> shards;       // every shard ever created
  std::vector<Shard*> free_shards;  // returned by exited threads
  std::atomic<uint32_t> num_deps{0};
  std::atomic<bool> enabled{false};
  std::atomic<bool> truncated{false};
  // Readable without the mutex on the hot path (store-release on
  // registration, load-acquire via num_deps ordering).
  std::atomic<uint32_t> body_atoms[kMaxProfileDeps] = {};

  static Registry& Get() {
    // Leaked on purpose: outlives every static destructor.
    static Registry* registry = new Registry;
    return *registry;
  }
};

// Returns this thread's shard to the pool when the thread exits; the
// shard itself stays registered so its counts survive into snapshots.
struct ShardHandle {
  Shard* shard = nullptr;
  ~ShardHandle() {
    if (shard != nullptr) {
      Registry& reg = Registry::Get();
      std::lock_guard<std::mutex> lock(reg.mu);
      reg.free_shards.push_back(shard);
    }
  }
};

Shard& LocalShard() {
  thread_local ShardHandle handle;
  if (handle.shard == nullptr) {
    Registry& reg = Registry::Get();
    std::lock_guard<std::mutex> lock(reg.mu);
    if (!reg.free_shards.empty()) {
      handle.shard = reg.free_shards.back();
      reg.free_shards.pop_back();
    } else {
      handle.shard = new Shard;
      reg.shards.push_back(handle.shard);
    }
  }
  return *handle.shard;
}

void ZeroShard(Shard* shard) {
  for (size_t d = 0; d < kMaxProfileDeps; ++d) {
    DepCells& cells = shard->deps[d];
    cells.searches.store(0, std::memory_order_relaxed);
    cells.matches.store(0, std::memory_order_relaxed);
    cells.backtracks.store(0, std::memory_order_relaxed);
    cells.probe_rows.store(0, std::memory_order_relaxed);
    cells.scan_rows.store(0, std::memory_order_relaxed);
    cells.triggers_found.store(0, std::memory_order_relaxed);
    cells.fired.store(0, std::memory_order_relaxed);
    cells.skipped.store(0, std::memory_order_relaxed);
    cells.nulls_minted.store(0, std::memory_order_relaxed);
    cells.facts_added.store(0, std::memory_order_relaxed);
    cells.rhs_searches.store(0, std::memory_order_relaxed);
    cells.rhs_backtracks.store(0, std::memory_order_relaxed);
    cells.time_us.store(0, std::memory_order_relaxed);
    for (size_t a = 0; a < kMaxProfileAtoms; ++a) {
      cells.atoms[a].probes.store(0, std::memory_order_relaxed);
      cells.atoms[a].probe_rows.store(0, std::memory_order_relaxed);
      cells.atoms[a].scan_rows.store(0, std::memory_order_relaxed);
      cells.atoms[a].unify_fails.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace

namespace internal {

thread_local ProfileTls profile_tls;

bool ProfilerEnabled() {
  return Registry::Get().enabled.load(std::memory_order_relaxed);
}

void ProfileAddTime(uint32_t dep, uint64_t us) {
  if (dep >= kMaxProfileDeps) return;
  LocalShard().deps[dep].time_us.fetch_add(us, std::memory_order_relaxed);
}

}  // namespace internal

void Profiler::Enable() {
  Registry::Get().enabled.store(true, std::memory_order_relaxed);
}

void Profiler::Disable() {
  Registry::Get().enabled.store(false, std::memory_order_relaxed);
}

bool Profiler::Enabled() { return internal::ProfilerEnabled(); }

void Profiler::Reset() {
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.pipelines.clear();
  reg.texts.clear();
  reg.by_key.clear();
  reg.num_deps.store(0, std::memory_order_release);
  reg.truncated.store(false, std::memory_order_relaxed);
  for (Shard* shard : reg.shards) ZeroShard(shard);
}

uint32_t Profiler::RegisterDep(const std::string& pipeline,
                               const std::string& text,
                               uint32_t body_atoms) {
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto key = std::make_pair(pipeline, text);
  auto it = reg.by_key.find(key);
  if (it != reg.by_key.end()) return it->second;
  uint32_t id = reg.num_deps.load(std::memory_order_relaxed);
  if (id >= kMaxProfileDeps) {
    reg.truncated.store(true, std::memory_order_relaxed);
    return kProfileNoDep;
  }
  reg.pipelines.push_back(pipeline);
  reg.texts.push_back(text);
  reg.by_key.emplace(std::move(key), id);
  reg.body_atoms[id].store(body_atoms, std::memory_order_relaxed);
  reg.num_deps.store(id + 1, std::memory_order_release);
  return id;
}

ProfileSnapshot Profiler::Snapshot() {
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  ProfileSnapshot snapshot;
  snapshot.truncated = reg.truncated.load(std::memory_order_relaxed);
  uint32_t n = reg.num_deps.load(std::memory_order_relaxed);
  snapshot.deps.reserve(n);
  for (uint32_t d = 0; d < n; ++d) {
    ProfileDepSnapshot dep;
    dep.id = d;
    dep.pipeline = reg.pipelines[d];
    dep.text = reg.texts[d];
    dep.body_atoms = reg.body_atoms[d].load(std::memory_order_relaxed);
    size_t atoms =
        std::min<size_t>(dep.body_atoms, kMaxProfileAtoms);
    dep.totals.atoms.resize(atoms);
    for (Shard* shard : reg.shards) {
      const DepCells& cells = shard->deps[d];
      ProfileDepCounters& t = dep.totals;
      t.searches += cells.searches.load(std::memory_order_relaxed);
      t.matches += cells.matches.load(std::memory_order_relaxed);
      t.backtracks += cells.backtracks.load(std::memory_order_relaxed);
      t.probe_rows += cells.probe_rows.load(std::memory_order_relaxed);
      t.scan_rows += cells.scan_rows.load(std::memory_order_relaxed);
      t.triggers_found +=
          cells.triggers_found.load(std::memory_order_relaxed);
      t.fired += cells.fired.load(std::memory_order_relaxed);
      t.skipped += cells.skipped.load(std::memory_order_relaxed);
      t.nulls_minted += cells.nulls_minted.load(std::memory_order_relaxed);
      t.facts_added += cells.facts_added.load(std::memory_order_relaxed);
      t.rhs_searches += cells.rhs_searches.load(std::memory_order_relaxed);
      t.rhs_backtracks +=
          cells.rhs_backtracks.load(std::memory_order_relaxed);
      t.time_us += cells.time_us.load(std::memory_order_relaxed);
      for (size_t a = 0; a < atoms; ++a) {
        t.atoms[a].probes +=
            cells.atoms[a].probes.load(std::memory_order_relaxed);
        t.atoms[a].probe_rows +=
            cells.atoms[a].probe_rows.load(std::memory_order_relaxed);
        t.atoms[a].scan_rows +=
            cells.atoms[a].scan_rows.load(std::memory_order_relaxed);
        t.atoms[a].unify_fails +=
            cells.atoms[a].unify_fails.load(std::memory_order_relaxed);
      }
    }
    snapshot.deps.push_back(std::move(dep));
  }
  return snapshot;
}

void ProfileRecordSearch(uint64_t matches, uint64_t backtracks,
                         const std::vector<ProfileAtomCounters>& atoms) {
  if (!ProfileSearchActive()) return;
  uint32_t dep = internal::profile_tls.dep;
  if (dep >= kMaxProfileDeps) return;
  Registry& reg = Registry::Get();
  if (dep >= reg.num_deps.load(std::memory_order_acquire)) return;
  DepCells& cells = LocalShard().deps[dep];
  uint32_t body =
      reg.body_atoms[dep].load(std::memory_order_relaxed);
  bool is_body = internal::profile_tls.phase == ProfilePhase::kCollect &&
                 atoms.size() == body;
  if (!is_body) {
    // Satisfaction searches (and any nested search over a different
    // conjunction) pool into the rhs totals so the per-atom sums stay an
    // exact decomposition of the body-search totals.
    cells.rhs_searches.fetch_add(1, std::memory_order_relaxed);
    cells.rhs_backtracks.fetch_add(backtracks, std::memory_order_relaxed);
    return;
  }
  cells.searches.fetch_add(1, std::memory_order_relaxed);
  cells.matches.fetch_add(matches, std::memory_order_relaxed);
  size_t limit = std::min(atoms.size(), kMaxProfileAtoms);
  uint64_t sum_fails = 0;
  uint64_t sum_probe_rows = 0;
  uint64_t sum_scan_rows = 0;
  for (size_t a = 0; a < limit; ++a) {
    cells.atoms[a].probes.fetch_add(atoms[a].probes,
                                    std::memory_order_relaxed);
    cells.atoms[a].probe_rows.fetch_add(atoms[a].probe_rows,
                                        std::memory_order_relaxed);
    cells.atoms[a].scan_rows.fetch_add(atoms[a].scan_rows,
                                       std::memory_order_relaxed);
    cells.atoms[a].unify_fails.fetch_add(atoms[a].unify_fails,
                                         std::memory_order_relaxed);
    sum_fails += atoms[a].unify_fails;
    sum_probe_rows += atoms[a].probe_rows;
    sum_scan_rows += atoms[a].scan_rows;
  }
  // Totals are the sums over the recorded atom range (== the true totals
  // whenever the body fits kMaxProfileAtoms), so the snapshot invariant
  // sum(atoms.*) == totals.* holds by construction.
  (void)backtracks;
  cells.backtracks.fetch_add(sum_fails, std::memory_order_relaxed);
  cells.probe_rows.fetch_add(sum_probe_rows, std::memory_order_relaxed);
  cells.scan_rows.fetch_add(sum_scan_rows, std::memory_order_relaxed);
}

void ProfileRecordTriggers(uint32_t dep, uint64_t count) {
  if (!internal::ProfilerEnabled() || dep >= kMaxProfileDeps) return;
  LocalShard().deps[dep].triggers_found.fetch_add(
      count, std::memory_order_relaxed);
}

void ProfileRecordFire(uint32_t dep, uint64_t nulls, uint64_t facts) {
  if (!internal::ProfilerEnabled() || dep >= kMaxProfileDeps) return;
  DepCells& cells = LocalShard().deps[dep];
  cells.fired.fetch_add(1, std::memory_order_relaxed);
  cells.nulls_minted.fetch_add(nulls, std::memory_order_relaxed);
  cells.facts_added.fetch_add(facts, std::memory_order_relaxed);
}

void ProfileRecordSkip(uint32_t dep) {
  if (!internal::ProfilerEnabled() || dep >= kMaxProfileDeps) return;
  LocalShard().deps[dep].skipped.fetch_add(1, std::memory_order_relaxed);
}

void ProfileRecordOutcomes(uint32_t dep, uint64_t triggers, uint64_t fired,
                           uint64_t skipped) {
  if (!internal::ProfilerEnabled() || dep >= kMaxProfileDeps) return;
  DepCells& cells = LocalShard().deps[dep];
  cells.triggers_found.fetch_add(triggers, std::memory_order_relaxed);
  cells.fired.fetch_add(fired, std::memory_order_relaxed);
  cells.skipped.fetch_add(skipped, std::memory_order_relaxed);
}

namespace {

void AppendDepJson(std::string* out, const ProfileDepSnapshot& dep,
                   bool canonical) {
  const ProfileDepCounters& t = dep.totals;
  *out += "{\"id\": " + std::to_string(dep.id) + ", \"pipeline\": ";
  AppendJsonString(out, dep.pipeline);
  *out += ", \"dependency\": ";
  AppendJsonString(out, dep.text);
  *out += ", \"body_atoms\": " + std::to_string(dep.body_atoms);
  *out += ", \"totals\": {\"searches\": " + std::to_string(t.searches) +
          ", \"matches\": " + std::to_string(t.matches) +
          ", \"backtracks\": " + std::to_string(t.backtracks) +
          ", \"probe_rows\": " + std::to_string(t.probe_rows) +
          ", \"scan_rows\": " + std::to_string(t.scan_rows) +
          ", \"triggers_found\": " + std::to_string(t.triggers_found) +
          ", \"fired\": " + std::to_string(t.fired) +
          ", \"skipped\": " + std::to_string(t.skipped) +
          ", \"nulls_minted\": " + std::to_string(t.nulls_minted) +
          ", \"facts_added\": " + std::to_string(t.facts_added) +
          ", \"rhs_searches\": " + std::to_string(t.rhs_searches) +
          ", \"rhs_backtracks\": " + std::to_string(t.rhs_backtracks);
  if (!canonical) {
    *out += ", \"time_us\": " + std::to_string(t.time_us);
  }
  *out += "}, \"atoms\": [";
  for (size_t a = 0; a < t.atoms.size(); ++a) {
    if (a > 0) *out += ", ";
    *out += "{\"pos\": " + std::to_string(a) +
            ", \"probes\": " + std::to_string(t.atoms[a].probes) +
            ", \"probe_rows\": " + std::to_string(t.atoms[a].probe_rows) +
            ", \"scan_rows\": " + std::to_string(t.atoms[a].scan_rows) +
            ", \"unify_fails\": " + std::to_string(t.atoms[a].unify_fails) +
            "}";
  }
  *out += "]}";
}

}  // namespace

std::string ProfileSnapshot::ToJson(bool canonical) const {
  std::string out = "{\"truncated\": ";
  out += truncated ? "true" : "false";
  out += ", \"deps\": [";
  for (size_t i = 0; i < deps.size(); ++i) {
    if (i > 0) out += ", ";
    AppendDepJson(&out, deps[i], canonical);
  }
  out += "]}";
  return out;
}

std::string ProfileSnapshot::ToText(size_t top) const {
  std::vector<const ProfileDepSnapshot*> ranked;
  ranked.reserve(deps.size());
  for (const ProfileDepSnapshot& dep : deps) ranked.push_back(&dep);
  std::sort(ranked.begin(), ranked.end(),
            [](const ProfileDepSnapshot* a, const ProfileDepSnapshot* b) {
              if (a->totals.backtracks != b->totals.backtracks) {
                return a->totals.backtracks > b->totals.backtracks;
              }
              if (a->totals.time_us != b->totals.time_us) {
                return a->totals.time_us > b->totals.time_us;
              }
              return a->id < b->id;
            });
  if (top != 0 && ranked.size() > top) ranked.resize(top);
  std::string out =
      "profile: dependencies ranked by backtracks, then time\n";
  char line[256];
  for (const ProfileDepSnapshot* dep : ranked) {
    const ProfileDepCounters& t = dep->totals;
    std::snprintf(line, sizeof(line),
                  "#%u [%s] backtracks=%" PRIu64 " time=%.3fms"
                  " searches=%" PRIu64 " matches=%" PRIu64
                  " triggers=%" PRIu64 " fired=%" PRIu64
                  " skipped=%" PRIu64 " nulls=%" PRIu64 "\n",
                  dep->id, dep->pipeline.c_str(), t.backtracks,
                  static_cast<double>(t.time_us) / 1000.0, t.searches,
                  t.matches, t.triggers_found, t.fired, t.skipped,
                  t.nulls_minted);
    out += line;
    out += "  " + dep->text + "\n";
    for (size_t a = 0; a < t.atoms.size(); ++a) {
      std::snprintf(line, sizeof(line),
                    "  atom[%zu]: probes=%" PRIu64 " probe_rows=%" PRIu64
                    " scan_rows=%" PRIu64 " unify_fails=%" PRIu64 "\n",
                    a, t.atoms[a].probes, t.atoms[a].probe_rows,
                    t.atoms[a].scan_rows, t.atoms[a].unify_fails);
      out += line;
    }
  }
  if (ranked.empty()) out += "(no dependencies profiled)\n";
  return out;
}

}  // namespace obs
}  // namespace qimap
