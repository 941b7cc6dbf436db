#ifndef QIMAP_PERFBENCH_SPAN_TRACE_H_
#define QIMAP_PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace qimap::perfbench {

/// One timed call into a layer, recorded by the benchmark around the
/// library's public functions. Spans of one op share `op`.
struct Span {
  const char* name = "";  ///< static string: the layer metric's stem
  int64_t start_ns = 0;   ///< steady_clock, since the log was created
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< index into the log, -1 for an op's root
  uint32_t op = 0;
};

/// In-memory span log; nothing is written until WriteChromeTrace. Not
/// thread-safe: the benchmark's client is one thread.
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  /// Spans opened from now on carry this op id.
  void set_op(uint32_t op) { op_ = op; }
  int32_t Open(const char* name);
  void Close(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the spans
  /// in the given [begin, end) index ranges: one complete event per span,
  /// `args` carrying the op id and the parent's index in the log.
  bool WriteChromeTrace(
      const std::string& path,
      const std::vector<std::pair<size_t, size_t>>& ranges) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span indices
  uint32_t op_ = 0;
};

/// Records one span for the enclosing scope; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Self time per span name over `spans[begin, end)`, in milliseconds: each
/// span's duration minus the part of it its direct children cover, summed
/// by name. The self times of one op's spans add up to its root span.
std::map<std::string, double> SelfTimesMs(const std::vector<Span>& spans,
                                          size_t begin, size_t end);

}  // namespace qimap::perfbench

#endif  // QIMAP_PERFBENCH_SPAN_TRACE_H_
