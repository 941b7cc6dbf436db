#ifndef QIMAP_OBS_JOURNAL_H_
#define QIMAP_OBS_JOURNAL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace qimap {
namespace obs {

/// The provenance journal: a process-wide, bounded, structured event log
/// recording *why* every fact of a chase result exists and *why* every
/// rule of an inversion output was emitted. Where the metrics registry
/// answers "how much work happened", the journal answers "where did this
/// fact come from" — the question that matters when debugging the subset
/// property (Theorem 3.5) or the MinGen/QuasiInverse pipeline
/// (Theorem 4.1).
///
/// Events are appended by `JournalRun` recorders embedded in the chase
/// engines and inversion algorithms, buffered in a bounded ring, and
/// optionally spilled to a JSONL file (`qimap_cli --journal-out`). On top
/// of the buffered events, `ExplainFact` reconstructs the derivation tree
/// of a fact — (dependency, bindings, parents) at every level down to the
/// input facts.
///
/// Journaling is off by default. A disabled `JournalRun` costs one
/// relaxed atomic load per pipeline run and nothing per fact.

/// What one journal event describes.
enum class JournalEventKind : uint8_t {
  /// An input fact registered when a run starts (no parents).
  kBaseFact = 0,
  /// A fact added by a dependency firing (or rewritten by an egd merge).
  kDerivedFact = 1,
  /// A fresh labeled null minted for an existential variable.
  kNullMinted = 2,
  /// An egd merge: one value replaced by another across the instance.
  kEgdMerge = 3,
  /// A rule emitted by an inversion algorithm, attributed to the prime
  /// instance or generator candidates that produced it.
  kRuleEmitted = 4,
  /// A resource-budget trip ending the run early: the fact field carries
  /// the status message, the dependency field names the tripped limit
  /// ("steps", "deadline", "memory", "nulls", "cancelled", "fault"), and
  /// the bindings field carries the run's usage counters.
  kBudgetTrip = 5,
};

/// Short name used in the JSONL `kind` field: "base", "fact", "null",
/// "merge", "rule", "budget".
const char* JournalEventKindName(JournalEventKind kind);

/// One journal event. String fields are rendered with the repo's standard
/// `ToString` conventions so they match CLI output verbatim.
struct JournalEvent {
  /// Monotone, process-wide, 1-based.
  uint64_t id = 0;
  JournalEventKind kind = JournalEventKind::kBaseFact;
  /// Which pipeline run recorded the event (monotone per process).
  uint64_t run = 0;
  /// The recording pipeline, e.g. "chase/standard", "chase/target",
  /// "chase/disjunctive", "mingen", "quasi_inverse", "inverse".
  std::string pipeline;
  /// The fact (kBaseFact/kDerivedFact), the null label (kNullMinted), the
  /// "dropped -> kept" pair (kEgdMerge), or the rule text (kRuleEmitted).
  std::string fact;
  /// The dependency that fired / the attribution source; empty for base
  /// facts.
  std::string dependency;
  /// Index of the dependency within its run's dependency list; -1 when
  /// not applicable.
  int32_t dep_index = -1;
  /// The trigger homomorphism, rendered as "x=a, y=_N1"; for kNullMinted
  /// the existential variable the null was minted for.
  std::string bindings;
  /// Event ids of the parent facts the trigger matched (kDerivedFact), or
  /// of the attribution events (kRuleEmitted). Always smaller than `id`.
  std::vector<uint64_t> parents;
  /// Event ids of the nulls minted by the same firing.
  std::vector<uint64_t> nulls;
  /// Disjunct index for disjunctive-chase branches; -1 otherwise.
  int32_t disjunct = -1;
  /// Chase-tree node id for disjunctive-chase events; 0 otherwise.
  uint64_t node = 0;

  /// Renders the event as one JSONL line (no trailing newline). Empty and
  /// not-applicable fields are omitted.
  std::string ToJson() const;
};

/// The process-wide journal. All methods are thread-safe; appends take a
/// mutex (journal events are orders of magnitude rarer than metric
/// increments, and only happen when journaling is enabled).
class Journal {
 public:
  static void Enable();
  static void Disable();
  static bool Enabled();
  /// Drops all buffered events, closes any spill file, and resets the
  /// dropped/spilled/recorded counts (test hook).
  static void Clear();
  /// Sets the ring capacity (default 1<<16 events). When the buffer is
  /// full: with a spill path set, the whole buffer is flushed to the file;
  /// without one, the oldest event is dropped and counted.
  static void SetCapacity(size_t capacity);
  /// Opens (truncating) a JSONL spill file; "" closes it. False on I/O
  /// failure.
  static bool SetSpillPath(const std::string& path);
  /// Appends all buffered events to the spill file and empties the
  /// buffer. No-op (true) without a spill path.
  static bool Flush();
  /// Buffered (in-memory) events.
  static size_t NumEvents();
  /// Total events ever recorded / dropped by the ring / spilled to file.
  static uint64_t NumRecorded();
  static uint64_t NumDropped();
  static uint64_t NumSpilled();
  /// Copies the buffered events, oldest first.
  static std::vector<JournalEvent> Events();
};

namespace internal {
bool JournalEnabled();
uint64_t NextRunId();
uint64_t Append(JournalEvent event);
}  // namespace internal

/// Per-run provenance recorder. Constructed at the top of a pipeline run;
/// when the journal is disabled at runtime, `active()` is false and every
/// record call returns 0 without touching the journal. The recorder keeps
/// a fact-text -> event-id map so trigger parents resolve to the event
/// that first produced each fact.
class JournalRun {
 public:
  explicit JournalRun(const char* pipeline) : pipeline_(pipeline) {
    if (internal::JournalEnabled()) {
      active_ = true;
      run_ = internal::NextRunId();
    }
  }
  JournalRun(const JournalRun&) = delete;
  JournalRun& operator=(const JournalRun&) = delete;

  bool active() const { return active_; }

  /// Returns the event id of `fact`, registering a base-fact event if the
  /// run has not seen it yet. Used both to register input instances and
  /// to resolve trigger parents.
  uint64_t RecordBaseFact(const std::string& fact);

  /// Records one fact added by a dependency firing. First-writer wins in
  /// the fact-id map: duplicate adds append their own event but parent
  /// lookups keep resolving to the original derivation.
  uint64_t RecordDerivedFact(const std::string& fact,
                             const std::string& dependency,
                             int32_t dep_index, const std::string& bindings,
                             std::vector<uint64_t> parents,
                             std::vector<uint64_t> nulls = {},
                             int32_t disjunct = -1, uint64_t node = 0);

  /// Records a freshly minted null; `variable` is the existential
  /// variable it instantiates.
  uint64_t RecordNull(const std::string& null_text,
                      const std::string& variable,
                      const std::string& dependency, int32_t dep_index,
                      uint64_t node = 0);

  /// Records an egd merge replacing `dropped` with `kept`.
  uint64_t RecordMerge(const std::string& kept, const std::string& dropped,
                       const std::string& dependency, int32_t dep_index,
                       const std::string& bindings);

  /// Records an emitted inversion rule, attributed via `dependency` (the
  /// sigma-star member / prime instance) and `parents` (generator or
  /// prime-instance events).
  uint64_t RecordRule(const std::string& rule,
                      const std::string& dependency, int32_t dep_index,
                      const std::string& bindings,
                      std::vector<uint64_t> parents);

  /// Records a resource-budget trip ending the run: `message` is the
  /// structured status message, `limit` the tripped limit's short name
  /// (BudgetLimitName), `usage` the run's usage counters. Always the last
  /// event a governed run appends.
  uint64_t RecordBudget(const std::string& message,
                        const std::string& limit,
                        const std::string& usage);

  /// Event id previously recorded for `fact`, or 0 if unseen.
  uint64_t IdForFact(const std::string& fact) const;

 private:
  bool active_ = false;
  uint64_t run_ = 0;
  const char* pipeline_ = "";
  std::map<std::string, uint64_t> fact_ids_;
};

/// One node of a reconstructed derivation tree: the event plus the
/// recursively explained parents.
struct DerivationNode {
  JournalEvent event;
  std::vector<DerivationNode> parents;
  /// The null events minted by the same firing (not recursed into).
  std::vector<JournalEvent> minted_nulls;
};

/// Reconstructs the derivation tree of the first base/derived event whose
/// fact text equals `fact`. `events` is a journal snapshot (Events());
/// parents always have smaller ids, so the recursion terminates. Returns
/// nullopt when no event matches.
std::optional<DerivationNode> ExplainFact(
    const std::vector<JournalEvent>& events, const std::string& fact);

/// Renders a derivation tree as a JSON object:
///   {"fact":"Q(a,b)","event":3,"kind":"fact","base":false,
///    "dependency":"...","dep_index":0,"bindings":"x=a, y=b",
///    "nulls":[{"null":"_N1","for":"z"}],"parents":[...]}
std::string DerivationToJson(const DerivationNode& node);

/// Renders a derivation tree as an indented pretty-printed tree.
std::string DerivationToText(const DerivationNode& node);

}  // namespace obs
}  // namespace qimap

#endif  // QIMAP_OBS_JOURNAL_H_
