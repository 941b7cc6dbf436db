#include "obs/metrics.h"

#include <atomic>
#include <mutex>
#include <vector>

namespace qimap {
namespace obs {
namespace {

// Fixed per-shard capacity keeps the increment path branch-free apart
// from a bounds check: shards never reallocate, so readers can walk them
// without synchronizing with writers. Registrations past the cap are
// accepted but their updates are dropped (far above current usage).
constexpr size_t kMaxCounters = 256;

// One thread's slice of every counter. Single writer (the owning thread),
// many readers (snapshots); all accesses are relaxed atomics. A client
// that runs pipelines on short-lived threads would otherwise leave one
// shard per thread behind, so shards are pooled: a thread returns its
// shard on exit and the next thread reuses it (counts are cumulative;
// ResetMetrics zeroes the pool too).
struct Shard {
  std::atomic<uint64_t> counters[kMaxCounters] = {};
};

struct Registry {
  std::mutex mu;  // guards names and the shard lists, never increments
  std::vector<std::string> counter_names;
  std::vector<Shard*> shards;       // every shard ever created
  std::vector<Shard*> free_shards;  // returned by exited threads

  static Registry& Get() {
    // Leaked on purpose: metrics must outlive every static destructor.
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

}  // namespace

MetricId RegisterCounter(const std::string& name) {
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::string>& names = reg.counter_names;
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<MetricId>(i);
  }
  names.push_back(name);
  return static_cast<MetricId>(names.size() - 1);
}

void CounterAdd(MetricId id, uint64_t delta) {
  if (id >= kMaxCounters) return;
  LocalShard().counters[id].fetch_add(delta, std::memory_order_relaxed);
}

MetricsSnapshot SnapshotMetrics() {
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  MetricsSnapshot snapshot;
  for (size_t i = 0; i < reg.counter_names.size() && i < kMaxCounters;
       ++i) {
    uint64_t total = 0;
    for (Shard* shard : reg.shards) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snapshot.counters[reg.counter_names[i]] = total;
  }
  return snapshot;
}

size_t MetricsShardCount() {
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.shards.size();
}

void ResetMetrics() {
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (Shard* shard : reg.shards) {
    for (size_t i = 0; i < kMaxCounters; ++i) {
      shard->counters[i].store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace obs
}  // namespace qimap
