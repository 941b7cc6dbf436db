#include "span_trace.h"

#include <algorithm>
#include <cstdio>

namespace qimap::perfbench {

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int32_t SpanLog::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  // Stamp last so the log's own bookkeeping stays outside the span.
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanLog::Close(int32_t index) {
  int64_t now = NowNs();
  spans_[index].end_ns = now;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool SpanLog::WriteChromeTrace(
    const std::string& path,
    const std::vector<std::pair<size_t, size_t>>& ranges) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", out);
  const char* separator = "";
  for (const auto& [begin, end] : ranges) {
    for (size_t i = begin; i < end && i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"op\":%u,\"parent\":%d}}\n",
                   separator, s.name, s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, s.op, s.parent);
      separator = ",";
    }
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

std::map<std::string, double> SelfTimesMs(const std::vector<Span>& spans,
                                          size_t begin, size_t end) {
  std::vector<int64_t> self(end - begin);
  for (size_t i = begin; i < end; ++i) {
    self[i - begin] = spans[i].end_ns - spans[i].start_ns;
  }
  for (size_t i = begin; i < end; ++i) {
    const Span& child = spans[i];
    if (child.parent < static_cast<int32_t>(begin)) continue;
    const Span& parent = spans[child.parent];
    int64_t covered = std::min(child.end_ns, parent.end_ns) -
                      std::max(child.start_ns, parent.start_ns);
    self[child.parent - begin] -= std::max<int64_t>(covered, 0);
  }
  std::map<std::string, double> by_name;
  for (size_t i = begin; i < end; ++i) {
    by_name[spans[i].name] += self[i - begin] / 1e6;
  }
  return by_name;
}

}  // namespace qimap::perfbench
