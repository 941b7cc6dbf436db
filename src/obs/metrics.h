#ifndef QIMAP_OBS_METRICS_H_
#define QIMAP_OBS_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace qimap {
namespace obs {

/// A process-wide metrics registry of named counters.
///
/// Design: increments go to lock-free thread-local shards (plain relaxed
/// atomic stores owned by the writing thread) and are summed across shards
/// only when a snapshot is taken, so instrumenting a hot path costs a
/// thread-local pointer fetch plus one relaxed atomic add. Registration is
/// idempotent by name and mutex-protected; hot paths cache the returned
/// id in a function-local static:
///
///   static const obs::MetricId kFired =
///       obs::RegisterCounter("chase.triggers_fired");
///   obs::CounterAdd(kFired, stats.triggers_fired);
///
/// Metric names are dotted lowercase, `<subsystem>.<what>` — see
/// docs/observability.md for the full catalog.
using MetricId = uint32_t;

/// Registers (or looks up) a monotonic counter. Idempotent by name.
MetricId RegisterCounter(const std::string& name);

/// Adds `delta` to the counter on this thread's shard.
void CounterAdd(MetricId id, uint64_t delta = 1);

/// A merged point-in-time view of every registered counter. Run records
/// (obs/run_record.h) render it as their `counters`.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
};

/// Merges all thread shards into a snapshot. Safe to call concurrently
/// with writers (relaxed reads; the result is a consistent-enough view
/// for reporting).
MetricsSnapshot SnapshotMetrics();

/// Zeroes every counter in every shard. Intended for tests and for bench
/// reporters isolating a measurement window; callers must quiesce writer
/// threads first.
void ResetMetrics();

/// Number of per-thread shards allocated so far. A thread returns its
/// shard to a pool on exit and later threads reuse it, so this is bounded
/// by the peak number of threads alive at once, not by how many ran.
size_t MetricsShardCount();

}  // namespace obs
}  // namespace qimap

#endif  // QIMAP_OBS_METRICS_H_
