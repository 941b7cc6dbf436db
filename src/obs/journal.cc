#include "obs/journal.h"

#include <atomic>
#include <cstdio>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_record.h"

namespace qimap {
namespace obs {
namespace {

constexpr size_t kDefaultCapacity = 1u << 16;

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_run{1};

struct JournalState {
  std::mutex mu;
  std::deque<JournalEvent> events;
  size_t capacity = kDefaultCapacity;
  uint64_t next_id = 1;
  uint64_t recorded = 0;
  uint64_t dropped = 0;
  uint64_t spilled = 0;
  std::FILE* spill = nullptr;
  std::string spill_path;

  static JournalState& Get() {
    // Leaked on purpose: the journal must outlive static destructors.
    static JournalState* state = new JournalState;
    return *state;
  }
};

void AppendIdArray(std::string* out, const char* key,
                   const std::vector<uint64_t>& ids) {
  if (ids.empty()) return;
  *out += ",\"";
  *out += key;
  *out += "\":[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += std::to_string(ids[i]);
  }
  out->push_back(']');
}

// Mirrors journal activity into the metrics registry (`journal.*`).
void CountEvent(const JournalEvent& event) {
  static const MetricId kEvents = RegisterCounter("journal.events");
  static const MetricId kBase = RegisterCounter("journal.base_facts");
  static const MetricId kFacts = RegisterCounter("journal.derived_facts");
  static const MetricId kNulls = RegisterCounter("journal.nulls_minted");
  static const MetricId kMerges = RegisterCounter("journal.merges");
  static const MetricId kRules = RegisterCounter("journal.rules");
  static const MetricId kBudget =
      RegisterCounter("journal.budget_trips");
  CounterAdd(kEvents);
  switch (event.kind) {
    case JournalEventKind::kBaseFact:
      CounterAdd(kBase);
      break;
    case JournalEventKind::kDerivedFact:
      CounterAdd(kFacts);
      break;
    case JournalEventKind::kNullMinted:
      CounterAdd(kNulls);
      break;
    case JournalEventKind::kEgdMerge:
      CounterAdd(kMerges);
      break;
    case JournalEventKind::kRuleEmitted:
      CounterAdd(kRules);
      break;
    case JournalEventKind::kBudgetTrip:
      CounterAdd(kBudget);
      break;
  }
}

// The run-metadata header every journal file starts with: a JSONL line
// that is an object with a "meta" key and no "id", so consumers can tell
// it apart from events.
std::string MetaHeaderLine() {
  return "{\"meta\":" + RunMetaJson() + "}\n";
}

// Closes the spill file and publishes it: the spill is written to
// `<path>.tmp` and renamed into place on close, so readers never observe
// a half-written journal. Caller holds the mutex. False on I/O failure
// (the temp file is removed).
bool CloseSpill(JournalState& state) {
  if (state.spill == nullptr) return true;
  bool ok = std::fclose(state.spill) == 0;
  state.spill = nullptr;
  std::string tmp = state.spill_path + ".tmp";
  if (ok) {
    ok = std::rename(tmp.c_str(), state.spill_path.c_str()) == 0;
  }
  if (!ok) std::remove(tmp.c_str());
  state.spill_path.clear();
  return ok;
}

// Writes one event line to the spill file; caller holds the mutex.
bool SpillOne(JournalState& state, const JournalEvent& event) {
  std::string line = event.ToJson();
  line.push_back('\n');
  if (std::fwrite(line.data(), 1, line.size(), state.spill) !=
      line.size()) {
    return false;
  }
  ++state.spilled;
  return true;
}

// Drains the buffer into the spill file; caller holds the mutex.
bool SpillAll(JournalState& state) {
  static const MetricId kSpilled = RegisterCounter("journal.spilled");
  bool ok = true;
  size_t drained = 0;
  while (!state.events.empty()) {
    ok = SpillOne(state, state.events.front()) && ok;
    state.events.pop_front();
    ++drained;
  }
  if (drained > 0) {
    CounterAdd(kSpilled, drained);
    std::fflush(state.spill);
  }
  return ok;
}

}  // namespace

const char* JournalEventKindName(JournalEventKind kind) {
  switch (kind) {
    case JournalEventKind::kBaseFact:
      return "base";
    case JournalEventKind::kDerivedFact:
      return "fact";
    case JournalEventKind::kNullMinted:
      return "null";
    case JournalEventKind::kEgdMerge:
      return "merge";
    case JournalEventKind::kRuleEmitted:
      return "rule";
    case JournalEventKind::kBudgetTrip:
      return "budget";
  }
  return "unknown";
}

std::string JournalEvent::ToJson() const {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"kind\":\"";
  out += JournalEventKindName(kind);
  out += "\",\"run\":" + std::to_string(run) + ",\"pipeline\":";
  AppendJsonString(&out, pipeline);
  out += ",\"fact\":";
  AppendJsonString(&out, fact);
  if (!dependency.empty()) {
    out += ",\"dep\":";
    AppendJsonString(&out, dependency);
  }
  if (dep_index >= 0) {
    out += ",\"dep_index\":" + std::to_string(dep_index);
  }
  if (!bindings.empty()) {
    out += ",\"bindings\":";
    AppendJsonString(&out, bindings);
  }
  AppendIdArray(&out, "parents", parents);
  AppendIdArray(&out, "nulls", nulls);
  if (disjunct >= 0) {
    out += ",\"disjunct\":" + std::to_string(disjunct);
  }
  if (node != 0) {
    out += ",\"node\":" + std::to_string(node);
  }
  out.push_back('}');
  return out;
}

void Journal::Enable() {
  g_enabled.store(true, std::memory_order_relaxed);
}

void Journal::Disable() {
  g_enabled.store(false, std::memory_order_relaxed);
}

bool Journal::Enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void Journal::Clear() {
  JournalState& state = JournalState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  state.events.clear();
  state.recorded = 0;
  state.dropped = 0;
  state.spilled = 0;
  CloseSpill(state);
}

void Journal::SetCapacity(size_t capacity) {
  JournalState& state = JournalState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  state.capacity = capacity > 0 ? capacity : 1;
}

bool Journal::SetSpillPath(const std::string& path) {
  JournalState& state = JournalState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  // Finalizes (renames into place) any previous spill file first.
  bool closed = CloseSpill(state);
  if (path.empty()) return closed;
  std::string tmp = path + ".tmp";
  state.spill = std::fopen(tmp.c_str(), "wb");
  if (state.spill == nullptr) return false;
  state.spill_path = path;
  // Run-metadata header as the first JSONL line.
  std::string header = MetaHeaderLine();
  if (std::fwrite(header.data(), 1, header.size(), state.spill) !=
      header.size()) {
    std::fclose(state.spill);
    state.spill = nullptr;
    std::remove(tmp.c_str());
    state.spill_path.clear();
    return false;
  }
  return true;
}

bool Journal::Flush() {
  JournalState& state = JournalState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.spill == nullptr) return true;
  return SpillAll(state);
}

size_t Journal::NumEvents() {
  JournalState& state = JournalState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.events.size();
}

uint64_t Journal::NumRecorded() {
  JournalState& state = JournalState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.recorded;
}

uint64_t Journal::NumDropped() {
  JournalState& state = JournalState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.dropped;
}

uint64_t Journal::NumSpilled() {
  JournalState& state = JournalState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.spilled;
}

std::vector<JournalEvent> Journal::Events() {
  JournalState& state = JournalState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  return {state.events.begin(), state.events.end()};
}

namespace internal {

bool JournalEnabled() { return Journal::Enabled(); }

uint64_t NextRunId() {
  return g_next_run.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Append(JournalEvent event) {
  static const MetricId kDropped = RegisterCounter("journal.dropped");
  JournalState& state = JournalState::Get();
  std::lock_guard<std::mutex> lock(state.mu);
  event.id = state.next_id++;
  ++state.recorded;
  CountEvent(event);
  if (state.events.size() >= state.capacity) {
    if (state.spill != nullptr) {
      SpillAll(state);
    } else {
      state.events.pop_front();
      ++state.dropped;
      CounterAdd(kDropped);
    }
  }
  uint64_t id = event.id;
  state.events.push_back(std::move(event));
  return id;
}

}  // namespace internal

uint64_t JournalRun::RecordBaseFact(const std::string& fact) {
  if (!active_) return 0;
  auto it = fact_ids_.find(fact);
  if (it != fact_ids_.end()) return it->second;
  JournalEvent event;
  event.kind = JournalEventKind::kBaseFact;
  event.run = run_;
  event.pipeline = pipeline_;
  event.fact = fact;
  uint64_t id = internal::Append(std::move(event));
  fact_ids_.emplace(fact, id);
  return id;
}

uint64_t JournalRun::RecordDerivedFact(const std::string& fact,
                                       const std::string& dependency,
                                       int32_t dep_index,
                                       const std::string& bindings,
                                       std::vector<uint64_t> parents,
                                       std::vector<uint64_t> nulls,
                                       int32_t disjunct, uint64_t node) {
  if (!active_) return 0;
  JournalEvent event;
  event.kind = JournalEventKind::kDerivedFact;
  event.run = run_;
  event.pipeline = pipeline_;
  event.fact = fact;
  event.dependency = dependency;
  event.dep_index = dep_index;
  event.bindings = bindings;
  event.parents = std::move(parents);
  event.nulls = std::move(nulls);
  event.disjunct = disjunct;
  event.node = node;
  uint64_t id = internal::Append(std::move(event));
  fact_ids_.emplace(fact, id);  // first writer wins
  return id;
}

uint64_t JournalRun::RecordNull(const std::string& null_text,
                                const std::string& variable,
                                const std::string& dependency,
                                int32_t dep_index, uint64_t node) {
  if (!active_) return 0;
  JournalEvent event;
  event.kind = JournalEventKind::kNullMinted;
  event.run = run_;
  event.pipeline = pipeline_;
  event.fact = null_text;
  event.dependency = dependency;
  event.dep_index = dep_index;
  event.bindings = variable;
  event.node = node;
  return internal::Append(std::move(event));
}

uint64_t JournalRun::RecordMerge(const std::string& kept,
                                 const std::string& dropped,
                                 const std::string& dependency,
                                 int32_t dep_index,
                                 const std::string& bindings) {
  if (!active_) return 0;
  JournalEvent event;
  event.kind = JournalEventKind::kEgdMerge;
  event.run = run_;
  event.pipeline = pipeline_;
  event.fact = dropped + " -> " + kept;
  event.dependency = dependency;
  event.dep_index = dep_index;
  event.bindings = bindings;
  return internal::Append(std::move(event));
}

uint64_t JournalRun::RecordRule(const std::string& rule,
                                const std::string& dependency,
                                int32_t dep_index,
                                const std::string& bindings,
                                std::vector<uint64_t> parents) {
  if (!active_) return 0;
  JournalEvent event;
  event.kind = JournalEventKind::kRuleEmitted;
  event.run = run_;
  event.pipeline = pipeline_;
  event.fact = rule;
  event.dependency = dependency;
  event.dep_index = dep_index;
  event.bindings = bindings;
  event.parents = std::move(parents);
  return internal::Append(std::move(event));
}

uint64_t JournalRun::RecordBudget(const std::string& message,
                                  const std::string& limit,
                                  const std::string& usage) {
  if (!active_) return 0;
  JournalEvent event;
  event.kind = JournalEventKind::kBudgetTrip;
  event.run = run_;
  event.pipeline = pipeline_;
  event.fact = message;
  event.dependency = limit;
  event.bindings = usage;
  return internal::Append(std::move(event));
}

uint64_t JournalRun::IdForFact(const std::string& fact) const {
  auto it = fact_ids_.find(fact);
  return it != fact_ids_.end() ? it->second : 0;
}

namespace {

// Builds the tree rooted at `event_id` from the id-indexed events.
DerivationNode BuildNode(
    const std::unordered_map<uint64_t, const JournalEvent*>& by_id,
    uint64_t event_id) {
  DerivationNode node;
  auto it = by_id.find(event_id);
  if (it == by_id.end()) {
    // Unresolvable parent (spilled out of the buffer): leave a stub whose
    // id says what was lost.
    node.event.id = event_id;
    node.event.fact = "<unavailable>";
    return node;
  }
  node.event = *it->second;
  for (uint64_t parent : node.event.parents) {
    // Parent ids are always smaller than the event id, so the recursion
    // terminates.
    node.parents.push_back(BuildNode(by_id, parent));
  }
  for (uint64_t null_id : node.event.nulls) {
    auto null_it = by_id.find(null_id);
    if (null_it != by_id.end()) {
      node.minted_nulls.push_back(*null_it->second);
    }
  }
  return node;
}

void AppendTreeJson(std::string* out, const DerivationNode& node) {
  *out += "{\"fact\":";
  AppendJsonString(out, node.event.fact);
  *out += ",\"event\":" + std::to_string(node.event.id);
  *out += ",\"kind\":\"";
  *out += JournalEventKindName(node.event.kind);
  *out += "\",\"base\":";
  *out += node.event.kind == JournalEventKind::kBaseFact ? "true" : "false";
  if (!node.event.dependency.empty()) {
    *out += ",\"dependency\":";
    AppendJsonString(out, node.event.dependency);
  }
  if (node.event.dep_index >= 0) {
    *out += ",\"dep_index\":" + std::to_string(node.event.dep_index);
  }
  if (!node.event.bindings.empty()) {
    *out += ",\"bindings\":";
    AppendJsonString(out, node.event.bindings);
  }
  if (node.event.disjunct >= 0) {
    *out += ",\"disjunct\":" + std::to_string(node.event.disjunct);
  }
  if (!node.minted_nulls.empty()) {
    *out += ",\"nulls\":[";
    for (size_t i = 0; i < node.minted_nulls.size(); ++i) {
      if (i > 0) out->push_back(',');
      *out += "{\"null\":";
      AppendJsonString(out, node.minted_nulls[i].fact);
      *out += ",\"for\":";
      AppendJsonString(out, node.minted_nulls[i].bindings);
      out->push_back('}');
    }
    out->push_back(']');
  }
  if (!node.parents.empty()) {
    *out += ",\"parents\":[";
    for (size_t i = 0; i < node.parents.size(); ++i) {
      if (i > 0) out->push_back(',');
      AppendTreeJson(out, node.parents[i]);
    }
    out->push_back(']');
  }
  out->push_back('}');
}

void AppendTreeText(std::string* out, const DerivationNode& node,
                    const std::string& prefix, bool last, bool root) {
  if (root) {
    *out += node.event.fact;
  } else {
    *out += prefix + (last ? "└─ " : "├─ ") + node.event.fact;
  }
  if (node.event.kind == JournalEventKind::kBaseFact) {
    *out += "  (input)";
  } else if (!node.event.dependency.empty()) {
    *out += "  [via " + node.event.dependency;
    if (!node.event.bindings.empty()) {
      *out += " with " + node.event.bindings;
    }
    if (node.event.disjunct >= 0) {
      *out += ", disjunct " + std::to_string(node.event.disjunct);
    }
    *out += "]";
  }
  for (const JournalEvent& null_event : node.minted_nulls) {
    *out += "  {" + null_event.fact + " for " + null_event.bindings + "}";
  }
  out->push_back('\n');
  std::string child_prefix =
      root ? std::string("") : prefix + (last ? "   " : "│  ");
  for (size_t i = 0; i < node.parents.size(); ++i) {
    AppendTreeText(out, node.parents[i], child_prefix,
                   i + 1 == node.parents.size(), false);
  }
}

}  // namespace

std::optional<DerivationNode> ExplainFact(
    const std::vector<JournalEvent>& events, const std::string& fact) {
  std::unordered_map<uint64_t, const JournalEvent*> by_id;
  by_id.reserve(events.size());
  for (const JournalEvent& event : events) by_id.emplace(event.id, &event);
  for (const JournalEvent& event : events) {
    if (event.fact != fact) continue;
    if (event.kind != JournalEventKind::kBaseFact &&
        event.kind != JournalEventKind::kDerivedFact) {
      continue;
    }
    return BuildNode(by_id, event.id);
  }
  return std::nullopt;
}

std::string DerivationToJson(const DerivationNode& node) {
  std::string out;
  AppendTreeJson(&out, node);
  return out;
}

std::string DerivationToText(const DerivationNode& node) {
  std::string out;
  AppendTreeText(&out, node, "", true, true);
  return out;
}

}  // namespace obs
}  // namespace qimap
