#ifndef QIMAP_OBS_TRACE_H_
#define QIMAP_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace qimap {
namespace obs {

/// One completed span (a Chrome trace-event "X" complete event).
/// Timestamps are microseconds since the recorder's epoch.
struct TraceEvent {
  std::string name;
  uint64_t ts_us = 0;
  uint64_t dur_us = 0;
  uint32_t tid = 0;
};

/// Process-wide trace recorder. Disabled by default: a disabled span
/// costs one relaxed atomic load and nothing else. When enabled, span
/// destructors append complete events to a bounded in-memory buffer that
/// exports as Chrome trace-event JSON — load the file in chrome://tracing
/// or https://ui.perfetto.dev.
class Trace {
 public:
  static void Enable();
  static void Disable();
  static bool Enabled();
  /// Drops all buffered events (and the dropped-event count).
  static void Clear();
  static size_t NumEvents();
  /// Copies the buffered events, oldest first (test hook).
  static std::vector<TraceEvent> Events();
  /// Renders the Chrome trace-event JSON document.
  static std::string ToJson();
  /// Writes ToJson() to `path`; false on I/O failure.
  static bool WriteJson(const std::string& path);
};

namespace internal {
bool TracingEnabled();
void RecordCompleteEvent(const char* name,
                         std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end);
}  // namespace internal

/// RAII span: records a complete event for its scope when tracing is
/// enabled. Use through QIMAP_TRACE_SPAN, or through the pipeline scope
/// (obs/pipeline_run.h) that holds one per pipeline call. Span names
/// are `<subsystem>/<operation>` (e.g. "chase/standard", "mingen/search");
/// see docs/observability.md.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (internal::TracingEnabled()) {
      name_ = name;
      start_ = std::chrono::steady_clock::now();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (name_ != nullptr) {
      internal::RecordCompleteEvent(name_, start_,
                                    std::chrono::steady_clock::now());
    }
  }

 private:
  const char* name_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

#define QIMAP_OBS_CONCAT_INNER(a, b) a##b
#define QIMAP_OBS_CONCAT(a, b) QIMAP_OBS_CONCAT_INNER(a, b)

#define QIMAP_TRACE_SPAN(name) \
  ::qimap::obs::TraceSpan QIMAP_OBS_CONCAT(qimap_trace_span_, __LINE__)(name)

}  // namespace obs
}  // namespace qimap

#endif  // QIMAP_OBS_TRACE_H_
