#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "obs/json.h"
#include "obs/run_record.h"

namespace qimap {
namespace obs {
namespace {

// Cap the buffer so a pathological run cannot eat the heap; events past
// the cap are counted and reported in the exported JSON metadata.
constexpr size_t kMaxEvents = size_t{1} << 20;

std::atomic<bool> g_enabled{false};

struct Recorder {
  std::mutex mu;
  std::vector<TraceEvent> events;
  size_t dropped = 0;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();

  static Recorder& Get() {
    static Recorder* recorder = new Recorder;
    return *recorder;
  }
};

uint32_t LocalTid() {
  static std::atomic<uint32_t> next_tid{1};
  thread_local uint32_t tid = next_tid.fetch_add(1);
  return tid;
}

}  // namespace

namespace internal {

bool TracingEnabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void RecordCompleteEvent(const char* name,
                         std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end) {
  Recorder& rec = Recorder::Get();
  TraceEvent event;
  event.name = name;
  event.tid = LocalTid();
  std::lock_guard<std::mutex> lock(rec.mu);
  event.ts_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(start -
                                                            rec.epoch)
          .count());
  event.dur_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count());
  if (rec.events.size() >= kMaxEvents) {
    ++rec.dropped;
    return;
  }
  rec.events.push_back(std::move(event));
}

}  // namespace internal

void Trace::Enable() { g_enabled.store(true, std::memory_order_relaxed); }

void Trace::Disable() {
  g_enabled.store(false, std::memory_order_relaxed);
}

bool Trace::Enabled() { return internal::TracingEnabled(); }

void Trace::Clear() {
  Recorder& rec = Recorder::Get();
  std::lock_guard<std::mutex> lock(rec.mu);
  rec.events.clear();
  rec.dropped = 0;
  rec.epoch = std::chrono::steady_clock::now();
}

size_t Trace::NumEvents() {
  Recorder& rec = Recorder::Get();
  std::lock_guard<std::mutex> lock(rec.mu);
  return rec.events.size();
}

std::vector<TraceEvent> Trace::Events() {
  Recorder& rec = Recorder::Get();
  std::lock_guard<std::mutex> lock(rec.mu);
  return rec.events;
}

std::string Trace::ToJson() {
  Recorder& rec = Recorder::Get();
  std::lock_guard<std::mutex> lock(rec.mu);
  std::string out = "{\"meta\": " + RunMetaJson() + ", \"traceEvents\": [";
  for (size_t i = 0; i < rec.events.size(); ++i) {
    const TraceEvent& e = rec.events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"name\": ";
    AppendJsonString(&out, e.name);
    out += ", \"cat\": \"qimap\", \"ph\": \"X\", \"ts\": " +
           std::to_string(e.ts_us) +
           ", \"dur\": " + std::to_string(e.dur_us) +
           ", \"pid\": 1, \"tid\": " + std::to_string(e.tid) + "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped\": " +
         std::to_string(rec.dropped) + "}}\n";
  return out;
}

bool Trace::WriteJson(const std::string& path) {
  // Atomic (temp + rename): a crashed or concurrent reader never sees a
  // partially written trace.
  return WriteFileAtomic(path, ToJson());
}

}  // namespace obs
}  // namespace qimap
