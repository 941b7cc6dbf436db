#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "core/containment.h"
#include "core/solution_space.h"
#include "obs/run_record.h"
#include "obs/metrics.h"
#include "workload/scenario_gen.h"

// Metamorphic soak for the containment oracle, driven by the seeded
// scenario generator. The metamorphic relations:
//
//   weaken(Sigma)     — drop a dependency, drop an rhs conjunct, or add an
//                       lhs premise. Sigma ⊆ weaken(Sigma) must HOLD.
//   strengthen(Sigma) — add a dependency producing a target relation no
//                       Sigma-dependency produces. Sigma ⊆
//                       strengthen(Sigma) must be VIOLATED.
//
// Every weaken verdict is cross-checked against the brute-force
// per-instance criterion (docs/verification.md §1): containment implies
// chase_Sigma(I) is a Sigma'-solution for the generated source I. Every
// strengthen counterexample is replayed through the chase to confirm it
// really violates the added dependency. A final leg pins the canonical
// run-record rendering of an oracle run byte-identical across two
// back-to-back runs.

namespace qimap {
namespace {

std::vector<ScenarioFamily> AllFamilies() {
  return {ScenarioFamily::kLav, ScenarioFamily::kGav, ScenarioFamily::kFull,
          ScenarioFamily::kMixed};
}

// Weakens one dependency set, rotating through the mutation kinds by
// seed so the sweep covers all of them.
SchemaMapping Weaken(const SchemaMapping& m, uint64_t seed) {
  SchemaMapping weak = m;
  size_t kind = seed % 3;
  if (kind == 0 && weak.tgds.size() > 1) {  // drop a whole dependency
    weak.tgds.erase(weak.tgds.begin() +
                    static_cast<ptrdiff_t>(seed % weak.tgds.size()));
    return weak;
  }
  Tgd& tgd = weak.tgds[seed % weak.tgds.size()];
  if (kind <= 1 && tgd.rhs.size() > 1) {  // drop an rhs conjunct
    tgd.rhs.pop_back();
    return weak;
  }
  // Add an lhs premise with fresh variables: a harder-to-trigger body.
  Atom premise = tgd.lhs.front();
  for (size_t i = 0; i < premise.args.size(); ++i) {
    premise.args[i] = Value::MakeVariable("w" + std::to_string(i + 1));
  }
  tgd.lhs.push_back(std::move(premise));
  return weak;
}

// Strengthens the set with a dependency whose conclusion uses a target
// relation nothing in `m` produces; nullopt when every target relation is
// already produced.
std::optional<SchemaMapping> Strengthen(const SchemaMapping& m) {
  std::set<RelationId> produced;
  for (const Tgd& tgd : m.tgds) {
    for (const Atom& atom : tgd.rhs) produced.insert(atom.relation);
  }
  for (RelationId r = 0; r < m.target->size(); ++r) {
    if (produced.count(r) != 0) continue;
    SchemaMapping strong = m;
    Tgd extra;
    extra.lhs = m.tgds.front().lhs;
    Atom head;
    head.relation = r;
    // Frontier-only head: satisfiable only by a real fact of the unused
    // relation, which Sigma never emits — a guaranteed strengthening.
    std::vector<Value> frontier = VariablesOf(extra.lhs);
    for (uint32_t pos = 0; pos < m.target->relation(r).arity; ++pos) {
      head.args.push_back(frontier[pos % frontier.size()]);
    }
    extra.rhs.push_back(std::move(head));
    strong.tgds.push_back(std::move(extra));
    return strong;
  }
  return std::nullopt;
}

ScenarioConfig SmallConfig(ScenarioFamily family, uint64_t seed) {
  ScenarioConfig config;
  config.family = family;
  config.topology = static_cast<BodyTopology>(seed % 3);
  config.num_tgds = 3;
  config.body_atoms = 2;
  return config;
}

// weaken(Sigma) must contain Sigma, on 4 families x 60 seeds = 240
// cases, each cross-checked against the brute-force per-instance
// criterion on the scenario's own small source instance.
TEST(ContainmentMetamorphicTest, WeakeningIsAlwaysImplied) {
  size_t cases = 0;
  for (ScenarioFamily family : AllFamilies()) {
    for (uint64_t seed = 1; seed <= 60; ++seed) {
      Scenario s =
          GenerateScenario(SmallConfig(family, seed), seed * 37 + 5, 6);
      SchemaMapping weak = Weaken(s.mapping, seed);
      SCOPED_TRACE(std::string(ScenarioFamilyName(family)) + " seed=" +
                   std::to_string(seed) + "\nSigma:\n" +
                   s.mapping.ToString() + "Sigma':\n" + weak.ToString());
      Result<ContainmentReport> report =
          CheckContainment(s.mapping, weak);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(report->holds) << report->Summary();

      // Brute-force cross-check: Sigma ⊨ Sigma' implies that the
      // Sigma-chase of any source instance is a Sigma'-solution.
      Instance chased = MustChase(s.source, s.mapping);
      EXPECT_TRUE(IsSolution(weak, s.source, chased))
          << "oracle said contained but the chase of the generated "
             "instance violates Sigma'";
      ++cases;
    }
  }
  EXPECT_EQ(cases, 240u);
}

// strengthen(Sigma) must NOT contain Sigma, and the reported
// counterexample must replay: chasing it with Sigma yields an instance
// that is not a solution under the strengthened set.
TEST(ContainmentMetamorphicTest, StrengtheningIsAlwaysDetected) {
  size_t strengthened = 0;
  for (ScenarioFamily family : AllFamilies()) {
    for (uint64_t seed = 1; seed <= 60; ++seed) {
      Scenario s =
          GenerateScenario(SmallConfig(family, seed), seed * 41 + 3, 0);
      std::optional<SchemaMapping> strong = Strengthen(s.mapping);
      if (!strong.has_value()) continue;  // every target relation in use
      SCOPED_TRACE(std::string(ScenarioFamilyName(family)) + " seed=" +
                   std::to_string(seed) + "\nSigma:\n" +
                   s.mapping.ToString() + "Sigma':\n" + strong->ToString());
      Result<ContainmentReport> report =
          CheckContainment(s.mapping, *strong);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_FALSE(report->holds) << report->Summary();
      ASSERT_TRUE(report->counterexample.has_value());
      // The verdict is constructive: the frozen premise instance is a
      // ground witness, and the brute-force criterion agrees on it.
      Instance chased = MustChase(*report->counterexample, s.mapping);
      EXPECT_FALSE(IsSolution(*strong, *report->counterexample, chased));
      ++strengthened;
    }
  }
  // The sweep must actually exercise the relation, not skip its way to
  // green: a 3-tgd mapping over 4 target relations usually leaves one
  // relation unproduced.
  EXPECT_GE(strengthened, 50u);
}

// Containment is reflexive and transitive along a weakening chain:
// Sigma ⊆ weaken(Sigma) ⊆ weaken(weaken(Sigma)).
TEST(ContainmentMetamorphicTest, WeakeningChainsCompose) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Scenario s = GenerateScenario(
        SmallConfig(ScenarioFamily::kMixed, seed), seed * 53 + 7, 0);
    SchemaMapping once = Weaken(s.mapping, seed);
    SchemaMapping twice = Weaken(once, seed + 1);
    const std::vector<std::pair<const SchemaMapping*,
                                const SchemaMapping*>>
        hops = {{&s.mapping, &once}, {&once, &twice}, {&s.mapping, &twice}};
    for (const auto& [sub, super] : hops) {
      Result<bool> contained = MappingContained(*sub, *super);
      ASSERT_TRUE(contained.ok()) << contained.status().ToString();
      EXPECT_TRUE(*contained)
          << "seed " << seed << "\nsub:\n" << sub->ToString()
          << "super:\n" << super->ToString();
    }
  }
}

// The oracle's canonical run record — counters, fingerprint-free run
// facts — must be byte-identical across two identical back-to-back runs.
TEST(ContainmentMetamorphicTest, CanonicalTelemetryIdenticalAcrossRuns) {
  std::vector<std::string> renderings;
  for (int run = 1; run <= 2; ++run) {
    obs::ResetMetrics();
    Scenario s = GenerateScenario(
        SmallConfig(ScenarioFamily::kMixed, 1), 97, 0);
    SchemaMapping weak = Weaken(s.mapping, 1);
    Result<ContainmentReport> report = CheckContainment(s.mapping, weak);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->holds);
    obs::RunRecord entry = obs::CollectRunRecord(
        "contains", nullptr, 0, 0.001 * static_cast<double>(run));
    entry.ts_us = 1000 * run;  // timing differs; canonical omits it
    renderings.push_back(entry.ToJson(/*canonical=*/true));
  }
  ASSERT_EQ(renderings.size(), 2u);
  EXPECT_EQ(renderings[0], renderings[1]);
  EXPECT_NE(renderings[0].find("containment.runs"), std::string::npos);
}

}  // namespace
}  // namespace qimap
