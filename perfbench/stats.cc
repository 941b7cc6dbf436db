#include "stats.h"

#include <algorithm>
#include <cmath>

namespace qimap::perfbench {

std::optional<double> TailPercentile(std::vector<double> values, double q,
                                     size_t min_beyond) {
  if (values.empty() || q <= 0 || q > 1) return std::nullopt;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  if (values.size() - rank < min_beyond) return std::nullopt;
  return values[rank - 1];
}

bool BestOfPasses::Record(size_t input, double ms) {
  double& best = best_ms_[input];
  if (best >= 0 && ms >= best) return false;
  best = ms;
  return true;
}

std::optional<LatencySummary> Summarize(const std::vector<double>& best_ms) {
  double total_ms = 0;
  for (double ms : best_ms) {
    if (ms < 0) return std::nullopt;
    total_ms += ms;
  }
  std::optional<double> p50 = TailPercentile(best_ms, 0.5);
  std::optional<double> p90 = TailPercentile(best_ms, 0.9);
  if (!p50 || !p90 || total_ms <= 0) return std::nullopt;
  LatencySummary summary;
  summary.ops_per_s = 1000.0 * static_cast<double>(best_ms.size()) / total_ms;
  summary.p50_ms = *p50;
  summary.p90_ms = *p90;
  return summary;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

CounterMap CounterDelta(const CounterMap& after, const CounterMap& before) {
  CounterMap delta;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    uint64_t base = it == before.end() ? 0 : it->second;
    if (value != base) delta[name] = value - base;
  }
  return delta;
}

std::string CounterMapToString(const CounterMap& counters) {
  std::string out;
  for (const auto& [name, value] : counters) {
    if (!out.empty()) out += ' ';
    out += name + "=" + std::to_string(value);
  }
  return out;
}

bool PassIdentity::Observe(size_t input, size_t pass,
                           const CounterMap& delta) {
  std::optional<CounterMap>& ref = reference_[input];
  if (!ref) {
    ref = delta;
    return true;
  }
  if (*ref == delta) return true;
  CounterMap diff;
  for (const auto& [name, value] : *ref) {
    auto it = delta.find(name);
    if (it == delta.end() || it->second != value) diff[name] = value;
  }
  for (const auto& [name, value] : delta) {
    if (ref->count(name) == 0) diff[name] = 0;
  }
  std::string detail;
  for (const auto& [name, value] : diff) {
    auto it = delta.find(name);
    if (!detail.empty()) detail += ", ";
    detail += name + " " + std::to_string(value) + " -> " +
              std::to_string(it == delta.end() ? 0 : it->second);
  }
  mismatches_.push_back("input " + std::to_string(input) + " pass " +
                        std::to_string(pass) + ": " + detail);
  return false;
}

const CounterMap* PassIdentity::reference(size_t input) const {
  const std::optional<CounterMap>& ref = reference_[input];
  return ref ? &*ref : nullptr;
}

}  // namespace qimap::perfbench
