#ifndef QIMAP_PERFBENCH_STATS_H_
#define QIMAP_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace qimap::perfbench {

/// Nearest-rank percentile: the `q`-quantile (0 < q <= 1) is the value of
/// rank ceil(q * n) in ascending order. Returns nullopt when fewer than
/// `min_beyond` samples rank above it — a tail percentile resting on a
/// handful of samples is not reported (p90 needs >= 100 samples).
std::optional<double> TailPercentile(std::vector<double> values, double q,
                                     size_t min_beyond = 10);

/// Per-input latency over repeated passes of one corpus. An input's
/// latency is its fastest pass: passes are separated in time, so the
/// minimum measures the program rather than what the machine's neighbours
/// did during one of them.
class BestOfPasses {
 public:
  explicit BestOfPasses(size_t inputs) : best_ms_(inputs, -1.0) {}

  /// Returns true when `ms` is the input's new best.
  bool Record(size_t input, double ms);

  double best_ms(size_t input) const { return best_ms_[input]; }
  /// Per input; -1 for an input never recorded.
  const std::vector<double>& best_ms() const { return best_ms_; }

 private:
  std::vector<double> best_ms_;
};

/// End-to-end latency statistics of one corpus.
struct LatencySummary {
  double ops_per_s = 0;  ///< corpus size / sum of per-input best latencies
  double p50_ms = 0;
  double p90_ms = 0;
};

/// Summarizes per-input best latencies; nullopt when the corpus is too
/// small for the p90 rule or a latency is missing.
std::optional<LatencySummary> Summarize(const std::vector<double>& best_ms);

/// Median (mean of the middle two for even sizes); 0 for an empty list.
double Median(std::vector<double> values);

/// Counter name -> value, as read from `obs::SnapshotMetrics().counters`.
using CounterMap = std::map<std::string, uint64_t>;

/// `after - before` for every counter that moved (absent means 0).
CounterMap CounterDelta(const CounterMap& after, const CounterMap& before);

/// Renders a counter map as `name=value` pairs (for diagnostics).
std::string CounterMapToString(const CounterMap& counters);

/// Detects work that is not identical on every pass. The first observed
/// counter delta of each input is its reference; any later pass whose
/// delta differs is a mismatch. A memo that survives from one pass to the
/// next (a cache the benchmark forgot to clear, or a new one) shows up as
/// fewer misses, searches or chase steps on the repeat.
class PassIdentity {
 public:
  explicit PassIdentity(size_t inputs) : reference_(inputs) {}

  /// Returns false (and records a mismatch) when `delta` differs from the
  /// input's reference delta.
  bool Observe(size_t input, size_t pass, const CounterMap& delta);

  bool ok() const { return mismatches_.empty(); }
  const std::vector<std::string>& mismatches() const { return mismatches_; }
  /// The input's reference delta, or nullptr before its first pass.
  const CounterMap* reference(size_t input) const;

 private:
  std::vector<std::optional<CounterMap>> reference_;
  std::vector<std::string> mismatches_;
};

}  // namespace qimap::perfbench

#endif  // QIMAP_PERFBENCH_STATS_H_
