#include "obs/progress.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "base/budget.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_record.h"

namespace qimap {
namespace obs {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_seq{0};

// The process-wide configuration plus the lazily opened JSONL stream.
// Guarded by one mutex: it is uncontended within one pipeline call, and
// it keeps pipelines that client threads run concurrently from
// interleaving stream writes.
std::mutex g_mu;
ProgressConfig g_config;
std::FILE* g_stream = nullptr;
// Set when opening or writing the stream fails; heartbeats are dropped
// from then on and the next close reports the failure.
bool g_stream_failed = false;

uint64_t SteadyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool CloseStreamLocked() {
  bool ok = !g_stream_failed;
  if (g_stream != nullptr) {
    ok = std::fclose(g_stream) == 0 && ok;
    g_stream = nullptr;
  }
  g_stream_failed = false;
  return ok;
}

// Writes `text` to the open stream, flushed; a short write or a failed
// flush marks the stream failed.
void WriteStreamLocked(const std::string& text) {
  if (std::fwrite(text.data(), 1, text.size(), g_stream) != text.size() ||
      std::fflush(g_stream) != 0) {
    g_stream_failed = true;
  }
}

bool StderrIsTty() {
  if (std::getenv("QIMAP_PROGRESS_FORCE_TTY") != nullptr) return true;
  return isatty(fileno(stderr)) != 0;
}

void AppendUint(std::string* out, const char* key, uint64_t value,
                bool first = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64, first ? "" : ", ",
                key, value);
  *out += buf;
}

uint64_t ProgressNowUs() {
  std::function<uint64_t()> clock;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    clock = g_config.clock;
  }
  return clock ? clock() : SteadyNowUs();
}

uint64_t NextProgressSeq() {
  return g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
}

void EmitProgress(const ProgressSnapshot& snap) {
  static const MetricId kHeartbeats = RegisterCounter("progress.heartbeats");
  CounterAdd(kHeartbeats);

  std::function<void(const ProgressSnapshot&)> sink;
  bool to_stderr = false;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    sink = g_config.sink;
    to_stderr = g_config.stderr_line && StderrIsTty();
    if (!g_config.jsonl_path.empty() && !g_stream_failed) {
      if (g_stream == nullptr) {
        g_stream = std::fopen(g_config.jsonl_path.c_str(), "wb");
        if (g_stream == nullptr) {
          g_stream_failed = true;
        } else {
          WriteStreamLocked("{\"meta\": " + RunMetaJson() + "}\n");
        }
      }
      if (g_stream != nullptr && !g_stream_failed) {
        WriteStreamLocked(snap.ToJson(/*canonical=*/false) + "\n");
      }
    }
  }
  if (to_stderr) {
    std::string line = "\r" + snap.ToLine();
    if (snap.is_final) line += "\n";
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
  }
  if (sink) sink(snap);
}

}  // namespace

std::string ProgressSnapshot::ToJson(bool canonical) const {
  std::string out = "{";
  AppendUint(&out, "seq", seq, /*first=*/true);
  out += ", \"pipeline\": ";
  AppendJsonString(&out, pipeline);
  out += std::string(", \"final\": ") + (is_final ? "true" : "false");
  AppendUint(&out, "steps", steps);
  AppendUint(&out, "facts", facts);
  AppendUint(&out, "nulls", nulls);
  AppendUint(&out, "fired", fired);
  AppendUint(&out, "skipped", skipped);
  AppendUint(&out, "total_estimate", total_estimate);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ", \"budget_fraction\": %.6f",
                budget_fraction);
  out += buf;
  if (!canonical) {
    AppendUint(&out, "elapsed_us", elapsed_us);
    AppendUint(&out, "eta_us", eta_us);
  }
  out += "}";
  return out;
}

std::string ProgressSnapshot::ToLine() const {
  std::string out = "[progress] ";
  out += pipeline;
  char buf[128];
  if (total_estimate > 0 && steps <= total_estimate) {
    std::snprintf(buf, sizeof(buf),
                  " steps=%" PRIu64 "/%" PRIu64 " (%d%%)", steps,
                  total_estimate,
                  static_cast<int>(100.0 * static_cast<double>(steps) /
                                   static_cast<double>(total_estimate)));
  } else {
    std::snprintf(buf, sizeof(buf), " steps=%" PRIu64, steps);
  }
  out += buf;
  std::snprintf(buf, sizeof(buf),
                " facts=%" PRIu64 " nulls=%" PRIu64 " fired=%" PRIu64
                " skipped=%" PRIu64,
                facts, nulls, fired, skipped);
  out += buf;
  if (budget_fraction >= 0.0) {
    std::snprintf(buf, sizeof(buf), " budget=%d%%",
                  static_cast<int>(100.0 * budget_fraction));
    out += buf;
  }
  if (is_final) {
    std::snprintf(buf, sizeof(buf), " done in %.3fs",
                  static_cast<double>(elapsed_us) / 1e6);
    out += buf;
  } else if (eta_us > 0) {
    std::snprintf(buf, sizeof(buf), " eta=%.1fs",
                  static_cast<double>(eta_us) / 1e6);
    out += buf;
  }
  return out;
}

void Progress::Enable() {
  g_enabled.store(true, std::memory_order_relaxed);
}

void Progress::Disable() {
  g_enabled.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_mu);
  CloseStreamLocked();
}

bool Progress::Enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void Progress::Configure(const ProgressConfig& config) {
  std::lock_guard<std::mutex> lock(g_mu);
  CloseStreamLocked();
  g_config = config;
  if (g_config.interval == 0) g_config.interval = 1;
}

void Progress::Reset() {
  g_enabled.store(false, std::memory_order_relaxed);
  g_seq.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_mu);
  CloseStreamLocked();
  g_config = ProgressConfig{};
}

bool Progress::CloseStream() {
  std::lock_guard<std::mutex> lock(g_mu);
  return CloseStreamLocked();
}

namespace internal {

uint64_t StartHeartbeats(uint64_t* start_us) {
  if (!Progress::Enabled()) return 0;
  uint64_t interval = 1;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (g_config.interval != 0) interval = g_config.interval;
  }
  *start_us = ProgressNowUs();
  return interval;
}

void EmitHeartbeat(const char* pipeline, bool is_final, uint64_t steps,
                   uint64_t total_estimate, uint64_t start_us,
                   const std::function<ProgressSample()>& sampler,
                   const Budget* budget) {
  ProgressSnapshot snap;
  snap.seq = NextProgressSeq();
  snap.pipeline = pipeline;
  snap.is_final = is_final;
  snap.steps = steps;
  if (sampler) {
    ProgressSample sample = sampler();
    snap.facts = sample.facts;
    snap.nulls = sample.nulls;
    snap.fired = sample.fired;
    snap.skipped = sample.skipped;
  }
  snap.total_estimate = total_estimate;
  if (budget != nullptr) {
    // Largest consumed fraction over the bounded *counter* limits only;
    // the deadline is timing and stays out of canonical snapshots.
    const BudgetSpec& spec = budget->spec();
    double fraction = -1.0;
    auto consider = [&fraction](size_t used, size_t limit) {
      if (limit == 0) return;
      double f = static_cast<double>(used) / static_cast<double>(limit);
      if (f > 1.0) f = 1.0;
      if (f > fraction) fraction = f;
    };
    consider(budget->steps(), spec.max_steps);
    consider(budget->nulls(), spec.max_nulls);
    consider(budget->memory_bytes(), spec.max_memory_bytes);
    snap.budget_fraction = fraction;
  }
  uint64_t now_us = ProgressNowUs();
  snap.elapsed_us = now_us >= start_us ? now_us - start_us : 0;
  if (total_estimate > 0 && steps > 0 && steps < total_estimate) {
    snap.eta_us = snap.elapsed_us * (total_estimate - steps) / steps;
  }
  EmitProgress(snap);
}

}  // namespace internal
}  // namespace obs
}  // namespace qimap
