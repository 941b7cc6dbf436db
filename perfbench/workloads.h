#ifndef QIMAP_PERFBENCH_WORKLOADS_H_
#define QIMAP_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "span_trace.h"

namespace qimap::perfbench {

/// One benchmark workload: a seeded corpus of inputs and the public API
/// call timed on each. The harness (main.cc) owns the clock, the passes,
/// the cache clearing and the counter deltas; a workload only knows its
/// inputs, its op and how to check the op's output.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the corpus for `seed`, renders every case to DSL text,
  /// parses it back through ParseCorpusCase (filling parse_ms()) and
  /// computes the per-input prerequisites. Exits the process on failure.
  virtual void Setup(uint64_t seed) = 0;
  /// Number of inputs in one pass.
  virtual size_t size() const = 0;

  /// True when one pass models one long-lived session whose inputs build
  /// on each other: the harness then clears caches once per pass instead
  /// of before every input.
  virtual bool session() const { return false; }
  /// Restores the state the first input of a pass starts from.
  virtual void BeginPass() {}
  /// The timed op. False on an error status or a budget trip.
  virtual bool Run(size_t input) = 0;
  /// Checks the output of the last Run of `input`, untimed. On the
  /// `first` checked pass this runs the full check and keeps a reference;
  /// later passes must reproduce the reference.
  virtual bool Check(size_t input, bool first) = 0;
  /// Untimed check at the end of every pass.
  virtual bool EndPass() { return true; }
  /// Untimed check once after the last pass.
  virtual bool FinalCheck() { return true; }

  /// The op again as the pipeline's public call sequence, with a span
  /// around each call into a layer. False on an error status.
  virtual bool RunTraced(size_t input, SpanLog* log) = 0;
  /// After a traced op: layer times (ms, by metric stem) that can only be
  /// reached by re-running part of the pipeline call. They are shares of
  /// the call, not additive self time.
  virtual std::map<std::string, double> Shares(size_t /*input*/) {
    return {};
  }
  /// Drops what the last traced op left behind, untimed. Traced outputs
  /// are not checked, and no op may time the freeing of an earlier op's
  /// result.
  virtual void Discard(size_t /*input*/) {}
  /// Counter-name prefixes that only the pipeline's own entry point
  /// bumps, so the traced replay legitimately omits them.
  virtual std::vector<std::string> ReplayOmits() const { return {}; }
  /// The input's mode when the workload mixes two (append: "keyed" or
  /// "arbitrary"); empty otherwise.
  virtual std::string Mode(size_t /*input*/) const { return ""; }

  /// ParseCorpusCase time of each case parsed by the last Setup, in ms.
  const std::vector<double>& parse_ms() const { return parse_ms_; }

 protected:
  std::vector<double> parse_ms_;
};

/// The workload called `name`, or nullptr.
std::unique_ptr<Workload> MakeWorkload(std::string_view name);

}  // namespace qimap::perfbench

#endif  // QIMAP_PERFBENCH_WORKLOADS_H_
