// Tests for the provenance journal (obs/journal.h): recording across the
// chase engines and inversion algorithms, derivation-tree reconstruction,
// and the ring-buffer / spill-to-JSONL behavior.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/fault.h"
#include "chase/chase.h"
#include "chase/disjunctive_chase.h"
#include "chase/target_chase.h"
#include "core/inverse.h"
#include "core/mingen.h"
#include "core/quasi_inverse.h"
#include "dependency/parser.h"
#include "obs/journal.h"
#include "workload/paper_catalog.h"

namespace qimap {
namespace {

// Every test drives the process-wide journal; reset it on entry and leave
// it disabled on exit so unrelated tests never observe stale events.
class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Journal::Disable();
    obs::Journal::Clear();
    obs::Journal::SetCapacity(1u << 16);
  }
  void TearDown() override {
    obs::Journal::Disable();
    obs::Journal::Clear();
    obs::Journal::SetCapacity(1u << 16);
  }
};

const obs::JournalEvent* FindEvent(
    const std::vector<obs::JournalEvent>& events, obs::JournalEventKind kind,
    const std::string& fact) {
  for (const obs::JournalEvent& event : events) {
    if (event.kind == kind && event.fact == fact) return &event;
  }
  return nullptr;
}

TEST_F(JournalTest, DisabledByDefaultRecordsNothing) {
  SchemaMapping m =
      MustParseMapping("P/3", "Q/2, R/2", "P(x,y,z) -> Q(x,y) & R(y,z)");
  Instance i = MustParseInstance(m.source, "P(a,b,c)");
  Instance u = MustChase(i, m);
  EXPECT_EQ(u.NumFacts(), 2u);
  EXPECT_EQ(obs::Journal::NumRecorded(), 0u);
  EXPECT_TRUE(obs::Journal::Events().empty());
  EXPECT_FALSE(obs::ExplainFact({}, "Q(a,b)").has_value());
}

TEST_F(JournalTest, ChaseRecordsBaseAndDerivedFacts) {
  obs::Journal::Enable();
  SchemaMapping m =
      MustParseMapping("P/3", "Q/2, R/2", "P(x,y,z) -> Q(x,y) & R(y,z)");
  Instance i = MustParseInstance(m.source, "P(a,b,c), P(d,b,e)");
  Instance u = MustChase(i, m);
  EXPECT_EQ(u.NumFacts(), 4u);

  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  const obs::JournalEvent* base =
      FindEvent(events, obs::JournalEventKind::kBaseFact, "P(a,b,c)");
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->pipeline, "chase/standard");
  EXPECT_TRUE(base->parents.empty());

  const obs::JournalEvent* derived =
      FindEvent(events, obs::JournalEventKind::kDerivedFact, "Q(a,b)");
  ASSERT_NE(derived, nullptr);
  EXPECT_EQ(derived->dep_index, 0);
  EXPECT_EQ(derived->dependency, "P(x,y,z) -> Q(x,y) & R(y,z)");
  EXPECT_NE(derived->bindings.find("x=a"), std::string::npos);
  ASSERT_EQ(derived->parents.size(), 1u);
  EXPECT_EQ(derived->parents[0], base->id);
  // Parents always precede children.
  EXPECT_LT(base->id, derived->id);
}

TEST_F(JournalTest, ExistentialChaseMintsNullEvents) {
  obs::Journal::Enable();
  SchemaMapping m =
      MustParseMapping("P/1", "Q/2", "P(x) -> exists y: Q(x,y)");
  Instance i = MustParseInstance(m.source, "P(a)");
  Instance u = MustChase(i, m);
  EXPECT_EQ(u.NumFacts(), 1u);

  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  const obs::JournalEvent* null_event =
      FindEvent(events, obs::JournalEventKind::kNullMinted, "_N1");
  ASSERT_NE(null_event, nullptr);
  EXPECT_EQ(null_event->bindings, "y");  // the existential it instantiates

  const obs::JournalEvent* derived =
      FindEvent(events, obs::JournalEventKind::kDerivedFact, "Q(a,_N1)");
  ASSERT_NE(derived, nullptr);
  ASSERT_EQ(derived->nulls.size(), 1u);
  EXPECT_EQ(derived->nulls[0], null_event->id);
}

TEST_F(JournalTest, ExplainFactReconstructsDerivationTree) {
  obs::Journal::Enable();
  SchemaMapping m =
      MustParseMapping("P/3", "Q/2, R/2", "P(x,y,z) -> Q(x,y) & R(y,z)");
  Instance i = MustParseInstance(m.source, "P(a,b,c), P(d,b,e)");
  (void)MustChase(i, m);

  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  std::optional<obs::DerivationNode> tree =
      obs::ExplainFact(events, "Q(a,b)");
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->event.fact, "Q(a,b)");
  EXPECT_EQ(tree->event.kind, obs::JournalEventKind::kDerivedFact);
  ASSERT_EQ(tree->parents.size(), 1u);
  EXPECT_EQ(tree->parents[0].event.fact, "P(a,b,c)");
  EXPECT_EQ(tree->parents[0].event.kind,
            obs::JournalEventKind::kBaseFact);

  std::string text = obs::DerivationToText(*tree);
  EXPECT_NE(text.find("Q(a,b)"), std::string::npos);
  EXPECT_NE(text.find("└─ P(a,b,c)  (input)"), std::string::npos);
  EXPECT_NE(text.find("[via P(x,y,z) -> Q(x,y) & R(y,z)"),
            std::string::npos);

  std::string json = obs::DerivationToJson(*tree);
  EXPECT_NE(json.find("\"fact\":\"Q(a,b)\""), std::string::npos);
  EXPECT_NE(json.find("\"base\":true"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"fact\""), std::string::npos);

  EXPECT_FALSE(obs::ExplainFact(events, "Q(zzz,zzz)").has_value());
}

TEST_F(JournalTest, RingBufferDropsOldestWithoutSpill) {
  obs::Journal::SetCapacity(4);
  obs::Journal::Enable();
  obs::JournalRun run("test");
  for (int k = 0; k < 10; ++k) {
    run.RecordBaseFact("F(c" + std::to_string(k) + ")");
  }
  EXPECT_EQ(obs::Journal::NumRecorded(), 10u);
  EXPECT_EQ(obs::Journal::NumEvents(), 4u);
  EXPECT_EQ(obs::Journal::NumDropped(), 6u);
  // The survivors are the newest events, ids still monotone.
  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().fact, "F(c6)");
  EXPECT_EQ(events.back().fact, "F(c9)");
}

TEST_F(JournalTest, SpillToJsonlKeepsEveryEvent) {
  std::string path = ::testing::TempDir() + "journal_spill_test.jsonl";
  obs::Journal::SetCapacity(4);
  ASSERT_TRUE(obs::Journal::SetSpillPath(path));
  obs::Journal::Enable();
  {
    obs::JournalRun run("test");
    for (int k = 0; k < 10; ++k) {
      run.RecordBaseFact("F(c" + std::to_string(k) + ")");
    }
  }
  EXPECT_EQ(obs::Journal::NumDropped(), 0u);
  ASSERT_TRUE(obs::Journal::Flush());
  EXPECT_EQ(obs::Journal::NumSpilled(), 10u);
  EXPECT_EQ(obs::Journal::NumEvents(), 0u);
  // The spill lands in `path.tmp` and is renamed into place on close, so
  // a half-written journal is never visible under the final name.
  std::FILE* unpublished = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(unpublished, nullptr);
  if (unpublished != nullptr) std::fclose(unpublished);
  ASSERT_TRUE(obs::Journal::SetSpillPath(""));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  size_t lines = 0;
  for (char c : contents) lines += c == '\n';
  // 10 events plus the run-metadata header line.
  EXPECT_EQ(lines, 11u);
  EXPECT_EQ(contents.find("{\"meta\":"), 0u);
  EXPECT_NE(contents.find("\"qimap_version\""), std::string::npos);
  EXPECT_NE(contents.find("\"fact\":\"F(c0)\""), std::string::npos);
  EXPECT_NE(contents.find("\"fact\":\"F(c9)\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(JournalTest, TargetChaseRecordsEgdMerges) {
  obs::Journal::Enable();
  SchemaMapping m = MustParseMapping(
      "P/1, R/1", "Q/2, S/2",
      "P(x) -> exists y: Q(x,y); R(x) -> exists z: Q(x,z) & S(z,x)");
  TargetConstraints constraints =
      MustParseTargetConstraints(*m.target, "Q(x,y) & Q(x,z) -> y = z");
  Instance i = MustParseInstance(m.source, "P(a), R(a)");
  Result<TargetChaseResult> result =
      ChaseWithTargetConstraints(i, m, constraints);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(result->solution.NumFacts(), 2u);  // Q(a,_N1), S(_N1,a)

  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  const obs::JournalEvent* merge = nullptr;
  for (const obs::JournalEvent& event : events) {
    if (event.kind == obs::JournalEventKind::kEgdMerge) merge = &event;
  }
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(merge->pipeline, "chase/target");
  EXPECT_EQ(merge->fact, "_N2 -> _N1");  // younger label yields
  EXPECT_EQ(merge->dependency, "Q(x,y) & Q(x,z) -> y = z");
  EXPECT_FALSE(merge->bindings.empty());
  // The merge rewrote S(_N2,a) into the previously unseen S(_N1,a),
  // which is re-registered parented on the merge event so later
  // triggers can resolve it.
  const obs::JournalEvent* rewritten =
      FindEvent(events, obs::JournalEventKind::kDerivedFact, "S(_N1,a)");
  ASSERT_NE(rewritten, nullptr);
  ASSERT_EQ(rewritten->parents.size(), 1u);
  EXPECT_EQ(rewritten->parents[0], merge->id);
}

TEST_F(JournalTest, QuasiInverseAttributesRulesToGenerators) {
  obs::Journal::Enable();
  SchemaMapping m =
      MustParseMapping("P/3", "Q/2, R/2", "P(x,y,z) -> Q(x,y) & R(y,z)");
  Result<ReverseMapping> reverse = QuasiInverse(m);
  ASSERT_TRUE(reverse.ok());
  ASSERT_FALSE(reverse->deps.empty());

  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  size_t rules = 0;
  bool original_tgd_attributed = false;
  for (const obs::JournalEvent& rule : events) {
    if (rule.kind != obs::JournalEventKind::kRuleEmitted ||
        rule.pipeline != "quasi_inverse") {
      continue;
    }
    ++rules;
    // Attributed to the sigma-star member it inverts (the first member
    // is the original tgd; the rest are its compositions)...
    EXPECT_FALSE(rule.dependency.empty());
    EXPECT_GE(rule.dep_index, 0);
    if (rule.dependency == "P(x,y,z) -> Q(x,y) & R(y,z)") {
      original_tgd_attributed = true;
    }
    // ...and parented on the MinGen generator events.
    ASSERT_FALSE(rule.parents.empty());
    for (uint64_t parent_id : rule.parents) {
      const obs::JournalEvent* parent = nullptr;
      for (const obs::JournalEvent& event : events) {
        if (event.id == parent_id) parent = &event;
      }
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(parent->kind, obs::JournalEventKind::kRuleEmitted);
      EXPECT_EQ(parent->pipeline, "mingen");
    }
  }
  EXPECT_EQ(rules, reverse->deps.size());
  EXPECT_TRUE(original_tgd_attributed);
}

// MinGen's generator event says why the generator exists: its bindings
// are the cover, each psi atom with the tgd and conclusion atom it was
// resolved against.
TEST_F(JournalTest, MinGenGeneratorEventsCiteTheirCover) {
  obs::Journal::Enable();
  SchemaMapping m = catalog::Example45();
  Result<Tgd> sigma2 = ParseTgd(
      *m.source, *m.target, "P(x1,x1,x3) -> exists y: S(x1,x1,y) & Q(y,y)");
  ASSERT_TRUE(sigma2.ok());
  std::vector<Value> x = {Value::MakeVariable("x1")};
  MinGenStats stats;
  MinGenOptions options;
  options.stats = &stats;
  Result<std::vector<Conjunction>> gens = MinGen(m, sigma2->rhs, x, options);
  ASSERT_TRUE(gens.ok());
  ASSERT_EQ(stats.generator_event_ids.size(), gens->size());

  // T(w1,x1) & R(w1,w1,w2), one of the paper's four generators.
  Result<RelationId> t = m.source->FindRelation("T");
  Result<RelationId> r = m.source->FindRelation("R");
  ASSERT_TRUE(t.ok() && r.ok());
  Value w1 = Value::MakeVariable("w1");
  Value w2 = Value::MakeVariable("w2");
  Conjunction expected = {{*t, {w1, x[0]}}, {*r, {w1, w1, w2}}};
  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  size_t matched = 0;
  for (size_t i = 0; i < gens->size(); ++i) {
    const Conjunction& g = (*gens)[i];
    if (g.size() != expected.size() ||
        !IsSubConjunctionUpToRenaming(g, expected, x) ||
        !IsSubConjunctionUpToRenaming(expected, g, x)) {
      continue;
    }
    ++matched;
    const obs::JournalEvent* event = nullptr;
    for (const obs::JournalEvent& e : events) {
      if (e.id == stats.generator_event_ids[i]) event = &e;
    }
    ASSERT_NE(event, nullptr);
    EXPECT_EQ(event->kind, obs::JournalEventKind::kRuleEmitted);
    EXPECT_EQ(event->pipeline, "mingen");
    EXPECT_EQ(event->fact, ConjunctionToString(g, *m.source));
    EXPECT_EQ(event->dependency, "S(x1,x1,y) & Q(y,y)");
    EXPECT_EQ(event->bindings,
              "S(x1,x1,y) <= #2 S(x4,x4,x3), Q(y,y) <= #3 Q(x1,x2)");
  }
  EXPECT_EQ(matched, 1u);
}

TEST_F(JournalTest, InverseAttributesRulesToPrimeInstances) {
  obs::Journal::Enable();
  SchemaMapping m = MustParseMapping("P/2", "Q/2", "P(x,y) -> Q(x,y)");
  Result<ReverseMapping> reverse = InverseAlgorithm(m);
  ASSERT_TRUE(reverse.ok());
  ASSERT_FALSE(reverse->deps.empty());

  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  size_t rules = 0;
  for (const obs::JournalEvent& event : events) {
    if (event.kind != obs::JournalEventKind::kRuleEmitted ||
        event.pipeline != "inverse") {
      continue;
    }
    ++rules;
    // Attributed to a prime atom over the source schema, with the prime
    // instance registered as the rule's parent.
    EXPECT_EQ(event.dependency.rfind("P(", 0), 0u);
    ASSERT_EQ(event.parents.size(), 1u);
    const obs::JournalEvent* parent = nullptr;
    for (const obs::JournalEvent& other : events) {
      if (other.id == event.parents[0]) parent = &other;
    }
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->kind, obs::JournalEventKind::kBaseFact);
    EXPECT_EQ(parent->fact, event.dependency);
  }
  // One rule per prime instance of P/2: x1=x2 and x1!=x2.
  EXPECT_EQ(rules, reverse->deps.size());
  EXPECT_EQ(rules, 2u);
}

TEST_F(JournalTest, DisjunctiveChaseTagsBranches) {
  obs::Journal::Enable();
  SchemaMapping m =
      MustParseMapping("P/3", "Q/2, R/2", "P(x,y,z) -> Q(x,y) & R(y,z)");
  ReverseMapping reverse = MustQuasiInverse(m);
  Instance target = MustParseInstance(m.target, "Q(a,b), R(b,c)");
  Result<std::vector<Instance>> leaves = DisjunctiveChase(target, reverse);
  ASSERT_TRUE(leaves.ok());
  ASSERT_FALSE(leaves->empty());

  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  const obs::JournalEvent* branched = nullptr;
  for (const obs::JournalEvent& event : events) {
    if (event.pipeline == "chase/disjunctive" &&
        event.kind == obs::JournalEventKind::kDerivedFact) {
      branched = &event;
      break;
    }
  }
  ASSERT_NE(branched, nullptr);
  EXPECT_GE(branched->disjunct, 0);  // branch index is always tagged
  EXPECT_GE(branched->node, 2u);     // the root is node 1
  ASSERT_FALSE(branched->parents.empty());
  // Parents are the matched target facts, registered as base facts.
  for (uint64_t parent_id : branched->parents) {
    const obs::JournalEvent* parent = nullptr;
    for (const obs::JournalEvent& event : events) {
      if (event.id == parent_id) parent = &event;
    }
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->kind, obs::JournalEventKind::kBaseFact);
  }
}

// A fault-injected cancel mid-disjunctive-exploration must leave a
// well-formed journal: the run's final event is the `budget` trip naming
// the cancellation, and no node id is orphaned (every node whose nulls
// were journaled also journaled its facts — the wind-down happens between
// nodes, never inside one).
TEST_F(JournalTest, CancelledDisjunctiveWaveEndsWithBudgetEvent) {
  obs::Journal::Enable();
  SchemaMapping m =
      MustParseMapping("P/3", "Q/2, R/2", "P(x,y,z) -> Q(x,y) & R(y,z)");
  ReverseMapping reverse = MustQuasiInverse(m);
  Instance target = MustParseInstance(m.target, "Q(a,b), R(b,c), Q(d,b)");

  // Every branched child charges its copy once. Cancelling on the second
  // charge lands mid-tree: the root's child and the second level's child
  // have journaled their nulls and facts, and the exploration stops at
  // the check before the next node.
  Cancellation token;
  BudgetSpec spec;
  spec.cancellation = &token;
  Result<FaultPlan> plan = FaultPlan::Parse("alloc:2:cancel");
  ASSERT_TRUE(plan.ok());
  spec.fault_plan = *plan;
  Budget budget(spec);

  DisjunctiveChaseOptions options;
  options.budget = &budget;
  std::vector<Instance> partial;
  options.partial_out = &partial;
  DisjunctiveChaseStats stats;
  Result<std::vector<Instance>> run =
      DisjunctiveChase(target, reverse, options, &stats);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(stats.partial);
  EXPECT_EQ(budget.tripped(), BudgetLimit::kCancelled);

  std::vector<obs::JournalEvent> events = obs::Journal::Events();
  ASSERT_FALSE(events.empty());
  // Exactly the two charged children journaled facts before the cancel.
  std::set<uint64_t> child_nodes;
  for (const obs::JournalEvent& event : events) {
    if (event.kind == obs::JournalEventKind::kDerivedFact) {
      child_nodes.insert(event.node);
    }
  }
  EXPECT_EQ(child_nodes.size(), 2u);
  // The budget trip is the last thing a governed run journals.
  const obs::JournalEvent& last = events.back();
  EXPECT_EQ(last.kind, obs::JournalEventKind::kBudgetTrip);
  EXPECT_EQ(last.pipeline, "chase/disjunctive");
  EXPECT_EQ(last.dependency, "cancelled");
  EXPECT_EQ(last.fact, run.status().message());
  EXPECT_NE(last.bindings.find("steps="), std::string::npos);

  // No orphan node ids: a node that journaled a minted null also
  // journaled at least one derived fact.
  std::set<uint64_t> fact_nodes;
  for (const obs::JournalEvent& event : events) {
    if (event.kind == obs::JournalEventKind::kDerivedFact &&
        event.node != 0) {
      fact_nodes.insert(event.node);
    }
  }
  for (const obs::JournalEvent& event : events) {
    if (event.kind == obs::JournalEventKind::kNullMinted &&
        event.node != 0) {
      EXPECT_EQ(fact_nodes.count(event.node), 1u)
          << "orphan node " << event.node;
    }
  }
}

TEST_F(JournalTest, JsonlRenderingOmitsEmptyFields) {
  obs::Journal::Enable();
  obs::JournalRun run("test");
  uint64_t base = run.RecordBaseFact("P(a)");
  run.RecordDerivedFact("Q(a)", "P(x) -> Q(x)", 0, "x=a", {base});
  std::string jsonl;
  for (const obs::JournalEvent& event : obs::Journal::Events()) {
    jsonl += event.ToJson() + "\n";
  }
  // The base-fact line has no dep/bindings/parents members at all.
  EXPECT_NE(jsonl.find("\"kind\":\"base\",\"run\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"fact\":\"P(a)\"}"), std::string::npos);
  EXPECT_NE(jsonl.find("\"dep\":\"P(x) -> Q(x)\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"parents\":[" + std::to_string(base) + "]"),
            std::string::npos);
}

}  // namespace
}  // namespace qimap
