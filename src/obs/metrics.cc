#include "obs/metrics.h"

#include <atomic>
#include <bit>
#include <mutex>

namespace qimap {
namespace obs {
namespace {

// Fixed per-shard capacity keeps the increment path branch-free apart
// from a bounds check: shards never reallocate, so readers can walk them
// without synchronizing with writers. Registrations past the cap are
// accepted but their updates are dropped (far above current usage).
constexpr size_t kMaxCounters = 256;
constexpr size_t kMaxHistograms = 64;
constexpr size_t kHistBuckets = 64;

struct HistogramSlot {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> min{UINT64_MAX};
  std::atomic<uint64_t> max{0};
  std::atomic<uint64_t> buckets[kHistBuckets] = {};
};

// One thread's slice of every metric. Single writer (the owning thread),
// many readers (snapshots); all accesses are relaxed atomics. ~36KB, and
// every chase with num_threads > 1 starts a fresh pool, so shards are
// pooled: a thread returns its shard on exit and the next thread reuses
// it (counts are cumulative; ResetMetrics zeroes the pool too).
struct Shard {
  std::atomic<uint64_t> counters[kMaxCounters] = {};
  HistogramSlot histograms[kMaxHistograms];
};

struct Registry {
  std::mutex mu;  // guards names and the shard lists, never increments
  std::vector<std::string> counter_names;
  std::vector<std::string> histogram_names;
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

MetricId RegisterIn(std::vector<std::string>* names,
                    const std::string& name) {
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (size_t i = 0; i < names->size(); ++i) {
    if ((*names)[i] == name) return static_cast<MetricId>(i);
  }
  names->push_back(name);
  return static_cast<MetricId>(names->size() - 1);
}

size_t BucketIndex(uint64_t value) {
  size_t index = static_cast<size_t>(std::bit_width(value));
  return index < kHistBuckets ? index : kHistBuckets - 1;
}

}  // namespace

MetricId RegisterCounter(const std::string& name) {
  return RegisterIn(&Registry::Get().counter_names, name);
}

MetricId RegisterHistogram(const std::string& name) {
  return RegisterIn(&Registry::Get().histogram_names, name);
}

void CounterAdd(MetricId id, uint64_t delta) {
  if (id >= kMaxCounters) return;
  LocalShard().counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void HistogramRecord(MetricId id, uint64_t value) {
  if (id >= kMaxHistograms) return;
  HistogramSlot& slot = LocalShard().histograms[id];
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.sum.fetch_add(value, std::memory_order_relaxed);
  // Single writer per shard: load-compare-store needs no CAS loop.
  if (value < slot.min.load(std::memory_order_relaxed)) {
    slot.min.store(value, std::memory_order_relaxed);
  }
  if (value > slot.max.load(std::memory_order_relaxed)) {
    slot.max.store(value, std::memory_order_relaxed);
  }
  slot.buckets[BucketIndex(value)].fetch_add(1,
                                             std::memory_order_relaxed);
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
  for (size_t i = 0;
       i < reg.histogram_names.size() && i < kMaxHistograms; ++i) {
    HistogramSnapshot hist;
    hist.min = UINT64_MAX;
    uint64_t bucket_totals[kHistBuckets] = {};
    for (Shard* shard : reg.shards) {
      const HistogramSlot& slot = shard->histograms[i];
      hist.count += slot.count.load(std::memory_order_relaxed);
      hist.sum += slot.sum.load(std::memory_order_relaxed);
      uint64_t lo = slot.min.load(std::memory_order_relaxed);
      uint64_t hi = slot.max.load(std::memory_order_relaxed);
      if (lo < hist.min) hist.min = lo;
      if (hi > hist.max) hist.max = hi;
      for (size_t b = 0; b < kHistBuckets; ++b) {
        bucket_totals[b] += slot.buckets[b].load(std::memory_order_relaxed);
      }
    }
    if (hist.count == 0) hist.min = 0;
    for (size_t b = 0; b < kHistBuckets; ++b) {
      if (bucket_totals[b] == 0) continue;
      uint64_t upper = b >= 63 ? UINT64_MAX : (uint64_t{1} << b);
      hist.buckets.emplace_back(upper, bucket_totals[b]);
    }
    snapshot.histograms[reg.histogram_names[i]] = std::move(hist);
  }
  return snapshot;
}

size_t MetricsShardCount() {
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.shards.size();
}

// Monotonic reset counter; see MetricsResetGeneration(). Starts at 1 so
// a cached generation of 0 ("never checked") always mismatches.
std::atomic<uint64_t> g_reset_generation{1};

uint64_t MetricsResetGeneration() {
  return g_reset_generation.load(std::memory_order_relaxed);
}

void ResetMetrics() {
  Registry& reg = Registry::Get();
  std::lock_guard<std::mutex> lock(reg.mu);
  g_reset_generation.fetch_add(1, std::memory_order_relaxed);
  for (Shard* shard : reg.shards) {
    for (size_t i = 0; i < kMaxCounters; ++i) {
      shard->counters[i].store(0, std::memory_order_relaxed);
    }
    for (size_t i = 0; i < kMaxHistograms; ++i) {
      HistogramSlot& slot = shard->histograms[i];
      slot.count.store(0, std::memory_order_relaxed);
      slot.sum.store(0, std::memory_order_relaxed);
      slot.min.store(UINT64_MAX, std::memory_order_relaxed);
      slot.max.store(0, std::memory_order_relaxed);
      for (size_t b = 0; b < kHistBuckets; ++b) {
        slot.buckets[b].store(0, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace obs
}  // namespace qimap
