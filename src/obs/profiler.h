#ifndef QIMAP_OBS_PROFILER_H_
#define QIMAP_OBS_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace qimap {
namespace obs {

/// Per-dependency chase profiler: attributes homomorphism-search work —
/// wall time, backtracks, index-probe vs full-scan rows, trigger counts,
/// fire/skip outcomes, null mints — to (dependency id, body-atom
/// position). The per-tgd cost statistics are the machine-readable input
/// the compiled match plans of ROADMAP #3 need.
///
/// Design mirrors the metrics registry (metrics.h): dependencies register
/// once on a serial setup path (so ids are deterministic), increments go
/// to lock-free thread-local shards, and a snapshot merges shards by
/// order-independent summation — so every non-timing field of a profile
/// is a pure function of the input, byte-identical across runs.
/// Snapshots taken while writer threads are live see a consistent-enough
/// view; a snapshot taken after the pipelines return is exact.
///
/// Disabled (the default) the layer costs one relaxed atomic load per
/// probe site.

/// Sentinel for "no dependency attributed" (scope inactive).
inline constexpr uint32_t kProfileNoDep = 0xffffffffu;

/// Per-atom attribution is tracked up to this many body atoms; the
/// trailing positions of longer bodies are dropped from both the per-atom
/// rows and the per-dependency sums, keeping the "atoms sum to totals"
/// invariant exact.
inline constexpr size_t kMaxProfileAtoms = 12;

/// Which side of a dependency the enclosed searches serve: kCollect
/// attributes per-atom body-match work; kFire pools satisfaction/rhs
/// searches into the dependency's rhs_* totals.
enum class ProfilePhase : uint8_t { kCollect, kFire };

/// One body-atom position's share of the search, indexed by the atom's
/// position in the dependency as written (the matcher's join reorder is
/// mapped back before recording).
struct ProfileAtomCounters {
  uint64_t probes = 0;       ///< posting-list / point-lookup probes here
  uint64_t probe_rows = 0;   ///< candidate rows visited via posting list
  uint64_t scan_rows = 0;    ///< candidate rows visited via full scan
  uint64_t unify_fails = 0;  ///< candidate tuples rejected (backtracks)
};

/// One dependency's merged totals. Body-search rows/backtracks equal the
/// sums over `atoms`; satisfaction (rhs) searches are kept apart so the
/// invariant stays exact.
struct ProfileDepCounters {
  uint64_t searches = 0;        ///< body (lhs) searches run
  uint64_t matches = 0;         ///< homomorphisms enumerated
  uint64_t backtracks = 0;      ///< sum of atoms[i].unify_fails
  uint64_t probe_rows = 0;      ///< sum of atoms[i].probe_rows
  uint64_t scan_rows = 0;       ///< sum of atoms[i].scan_rows
  uint64_t triggers_found = 0;  ///< sorted batch sizes handed to firing
  uint64_t fired = 0;           ///< triggers fired
  uint64_t skipped = 0;         ///< triggers skipped (already satisfied)
  uint64_t nulls_minted = 0;    ///< fresh labeled nulls introduced
  uint64_t facts_added = 0;     ///< facts written by this dependency
  uint64_t rhs_searches = 0;    ///< satisfaction / rhs-side searches
  uint64_t rhs_backtracks = 0;  ///< their rejected candidates
  uint64_t time_us = 0;         ///< wall time inside this dep's scopes
  std::vector<ProfileAtomCounters> atoms;
};

struct ProfileDepSnapshot {
  uint32_t id = 0;
  std::string pipeline;  ///< e.g. "chase/standard", "mingen"
  std::string text;      ///< the dependency (or unit) rendered as written
  uint32_t body_atoms = 0;
  ProfileDepCounters totals;
};

/// Point-in-time merged view of every registered dependency, in id order.
struct ProfileSnapshot {
  std::vector<ProfileDepSnapshot> deps;
  bool truncated = false;  ///< registrations past capacity were dropped

  /// Renders `{"truncated": ..., "deps": [...]}` on one line — the run
  /// record's `profile` field (schema in docs/observability.md).
  /// `canonical` omits the per-dependency `time_us`, leaving only fields
  /// that are byte-identical across runs.
  std::string ToJson(bool canonical) const;

  /// Renders the ranked hot-spot report (descending backtracks, then
  /// time) with a per-atom probe-vs-scan breakdown. `top` == 0 lists all.
  std::string ToText(size_t top = 0) const;
};

class Profiler {
 public:
  /// Turns profiling on.
  static void Enable();
  static void Disable();
  static bool Enabled();
  /// Drops every registered dependency and zeroes all shards. Callers
  /// must quiesce writer threads first (tests and bench windows).
  static void Reset();
  /// Registers (or looks up) a dependency under `pipeline`, keyed by
  /// (pipeline, text). Idempotent; call on serial setup paths so ids are
  /// deterministic. Returns kProfileNoDep past capacity.
  static uint32_t RegisterDep(const std::string& pipeline,
                              const std::string& text, uint32_t body_atoms);
  /// Merges all shards. Non-timing fields are exact once writers have
  /// quiesced.
  static ProfileSnapshot Snapshot();
};

namespace internal {
struct ProfileTls {
  uint32_t dep = kProfileNoDep;
  ProfilePhase phase = ProfilePhase::kCollect;
};
extern thread_local ProfileTls profile_tls;
bool ProfilerEnabled();
void ProfileAddTime(uint32_t dep, uint64_t us);
}  // namespace internal

/// RAII scope attributing the enclosed searches (and wall time) to `dep`.
/// Nests: the previous attribution is restored on exit, and each scope's
/// time is inclusive of its children. Inert when profiling is off or
/// `dep` is kProfileNoDep.
class ProfiledDepScope {
 public:
  ProfiledDepScope(uint32_t dep, ProfilePhase phase) {
    if (internal::ProfilerEnabled() && dep != kProfileNoDep) {
      active_ = true;
      saved_ = internal::profile_tls;
      internal::profile_tls.dep = dep;
      internal::profile_tls.phase = phase;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ProfiledDepScope(const ProfiledDepScope&) = delete;
  ProfiledDepScope& operator=(const ProfiledDepScope&) = delete;
  ~ProfiledDepScope() {
    if (active_) {
      auto elapsed = std::chrono::steady_clock::now() - start_;
      internal::ProfileAddTime(
          internal::profile_tls.dep,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                  .count()));
      internal::profile_tls = saved_;
    }
  }

 private:
  bool active_ = false;
  internal::ProfileTls saved_;
  std::chrono::steady_clock::time_point start_;
};

/// True iff profiling is on and a dependency scope is active on this
/// thread — the matcher's cheap guard before assembling per-atom samples.
inline bool ProfileSearchActive() {
  return internal::ProfilerEnabled() &&
         internal::profile_tls.dep != kProfileNoDep;
}

/// Records one finished homomorphism search against the active scope.
/// `atoms` is indexed by original body-atom position. Collect-phase
/// samples whose atom count matches the registered body feed the per-atom
/// rows and body totals; everything else (fire phase, or a nested search
/// over a different conjunction) pools into rhs_searches/rhs_backtracks.
void ProfileRecordSearch(uint64_t matches, uint64_t backtracks,
                         const std::vector<ProfileAtomCounters>& atoms);

/// Adds a sorted trigger batch's size to `dep`.
void ProfileRecordTriggers(uint32_t dep, uint64_t count);
/// Records one fire with its minted nulls and written facts.
void ProfileRecordFire(uint32_t dep, uint64_t nulls, uint64_t facts);
/// Records one skipped (already-satisfied) trigger.
void ProfileRecordSkip(uint32_t dep);

/// Adds pipeline-level outcome totals in bulk — how the inversion
/// pipelines flush their existing stats structs into their profiler
/// entry (candidates examined → triggers_found, units emitted → fired,
/// pruned → skipped).
void ProfileRecordOutcomes(uint32_t dep, uint64_t triggers, uint64_t fired,
                           uint64_t skipped);

}  // namespace obs
}  // namespace qimap

#endif  // QIMAP_OBS_PROFILER_H_
