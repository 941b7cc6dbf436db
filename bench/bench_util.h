#ifndef QIMAP_BENCH_BENCH_UTIL_H_
#define QIMAP_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/run_record.h"

namespace qimap {
namespace bench {

/// Prints the experiment banner (ids follow DESIGN.md, Section 4).
inline void Banner(const char* experiment_id, const char* title) {
  std::printf("================================================================\n");
  std::printf("[%s] %s\n", experiment_id, title);
  std::printf("================================================================\n");
}

/// Prints one paper-vs-measured row of the reproduction report.
inline void Row(const std::string& label, const std::string& paper,
                const std::string& measured) {
  std::printf("  %-52s | paper: %-22s | measured: %s\n", label.c_str(),
              paper.c_str(), measured.c_str());
}

/// Prints a free-form artifact line (indented).
inline void Artifact(const std::string& text) {
  std::printf("    %s\n", text.c_str());
}

inline const char* YesNo(bool b) { return b ? "yes" : "no"; }

/// Prints PASS/FAIL agreement between the paper's claim and the measured
/// outcome.
inline void Verdict(bool agrees) {
  std::printf("  => %s\n\n", agrees ? "REPRODUCED" : "MISMATCH");
}

/// Machine-readable companion of the printed report: collects named,
/// timed phases and writes the bench's run record (obs/run_record.h) as
/// `BENCH_<name>.json` — command "bench/<name>", the phases, and the
/// metrics counters, so CI can diff counters across runs. The file lands
/// in `QIMAP_BENCH_OUT_DIR` when that env var is set, else the working
/// directory; under `QIMAP_LEDGER` the same record is appended to the
/// run ledger, feeding `bench_report --history`.
///
///   bench::JsonReporter reporter("chase_scaling");
///   { bench::JsonReporter::ScopedPhase p(reporter, "n=64"); Run(64); }
///   reporter.Write();
class JsonReporter {
 public:
  explicit JsonReporter(std::string name) : name_(std::move(name)) {}

  void AddPhase(const std::string& phase, double seconds) {
    phases_.push_back({phase, seconds});
  }

  /// RAII phase timer (steady-clock wall time).
  class ScopedPhase {
   public:
    ScopedPhase(JsonReporter& reporter, std::string phase)
        : reporter_(reporter), phase_(std::move(phase)),
          start_(std::chrono::steady_clock::now()) {}
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;
    ~ScopedPhase() {
      std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start_;
      reporter_.AddPhase(phase_, elapsed.count());
    }

   private:
    JsonReporter& reporter_;
    std::string phase_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Writes the record (atomically: temp + rename) and, under
  /// QIMAP_LEDGER, appends it to the ledger; false (with a stderr
  /// diagnostic) on I/O failure. `elapsed_seconds` is the phases' sum.
  bool Write() const {
    double total = 0.0;
    for (const obs::RunRecord::Phase& phase : phases_) total += phase.seconds;
    obs::RunRecord record =
        obs::CollectRunRecord("bench/" + name_, nullptr, 0, total);
    record.phases = phases_;
    const char* dir = std::getenv("QIMAP_BENCH_OUT_DIR");
    std::string path = dir != nullptr ? std::string(dir) + "/" : "";
    path += "BENCH_" + name_ + ".json";
    const char* ledger = std::getenv("QIMAP_LEDGER");
    bool ok = obs::PublishRunRecord(&record, path,
                                    ledger != nullptr ? ledger : "",
                                    "JsonReporter");
    if (ok) std::printf("  bench report: %s\n", path.c_str());
    return ok;
  }

 private:
  std::string name_;
  std::vector<obs::RunRecord::Phase> phases_;
};

}  // namespace bench
}  // namespace qimap

#endif  // QIMAP_BENCH_BENCH_UTIL_H_
