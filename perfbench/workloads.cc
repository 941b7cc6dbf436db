#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <utility>

#include "base/rng.h"
#include "chase/chase.h"
#include "chase/chase_checkpoint.h"
#include "chase/disjunctive_chase.h"
#include "chase/match_plan.h"
#include "chase/solution_cache.h"
#include "chase/trigger_finder.h"
#include "core/quasi_inverse.h"
#include "core/sigma_star.h"
#include "core/soundness.h"
#include "dependency/satisfaction.h"
#include "relational/hom_cache.h"
#include "workload/scenario_gen.h"

namespace qimap::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Corpus sizes. Every corpus has >= 100 inputs so p90 has >= 10 samples
// beyond it (stats.h).
constexpr size_t kInvertCases = 1800;
constexpr size_t kInvertCheckFacts = 3;
constexpr size_t kExchangeCases = 600;
constexpr size_t kExchangeFacts = 1000;
constexpr size_t kExchangeOracleSample = 3;
constexpr size_t kRoundTripCases = 2400;
constexpr size_t kRoundTripFacts = 4;
constexpr size_t kAppendSessions = 256;
constexpr size_t kAppendRoundsPerSession = 2;
constexpr size_t kAppendBaseFacts = 400;
constexpr size_t kAppendDeltaFacts = 10;

constexpr ScenarioFamily kFamilies[] = {
    ScenarioFamily::kLav, ScenarioFamily::kGav, ScenarioFamily::kFull,
    ScenarioFamily::kMixed};
constexpr BodyTopology kTopologies[] = {
    BodyTopology::kChain, BodyTopology::kStar, BodyTopology::kCycle};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

// Per-input seed: SplitMix64 of (workload seed, input index).
uint64_t InputSeed(uint64_t seed, uint64_t input) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + input + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// An instance over the empty schema: the placeholder for an output slot
// that the first Run fills.
Instance EmptyInstance() { return Instance(std::make_shared<const Schema>()); }

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// True iff every other dependency's body reads some relation the last
// dependency's body does not. Bodies are connected, so a delta that
// instantiates only the last body with fresh constants then triggers only
// the last dependency.
bool LastBodyIsolated(const SchemaMapping& m) {
  std::set<RelationId> last;
  for (const Atom& atom : m.tgds.back().lhs) last.insert(atom.relation);
  for (size_t t = 0; t + 1 < m.tgds.size(); ++t) {
    bool inside = true;
    for (const Atom& atom : m.tgds[t].lhs) {
      inside = inside && last.count(atom.relation) > 0;
    }
    if (inside) return false;
  }
  return true;
}

// True iff some dependency body reads one relation twice. A self-join
// over a shared value makes the chase quadratic in the facts sharing it
// (and the disjunctive chase exponential in that), so a few such cases
// outweigh the rest of a corpus and move its totals from seed to seed.
bool HasSelfJoin(const SchemaMapping& m) {
  for (const Tgd& tgd : m.tgds) {
    std::set<RelationId> seen;
    for (const Atom& atom : tgd.lhs) {
      if (!seen.insert(atom.relation).second) return true;
    }
  }
  return false;
}

// Renders a generated case to DSL text and parses it back, which is what
// loading a mapping file costs a user; records the parse time.
Scenario LoadCase(const Scenario& generated, std::vector<double>* parse_ms) {
  std::string text = CorpusCaseToString(generated);
  Clock::time_point start = Clock::now();
  Result<Scenario> parsed = ParseCorpusCase(text);
  parse_ms->push_back(MsSince(start));
  if (!parsed.ok()) Die("ParseCorpusCase: " + parsed.status().ToString());
  return std::move(parsed).value();
}

// ---------------------------------------------------------------------------
// invert: QuasiInverse(m) over small mappings of every family and topology.

class InvertWorkload : public Workload {
 public:
  void Setup(uint64_t seed) override {
    cases_.clear();
    parse_ms_.clear();
    // (body_atoms, fan_out) with body_atoms * fan_out <= 2, the Lemma 4.4
    // bound that keeps MinGen's candidate space small.
    constexpr std::pair<size_t, size_t> kShapes[] = {{1, 1}, {1, 2}, {2, 1}};
    for (size_t i = 0; i < kInvertCases; ++i) {
      ScenarioConfig config;
      config.family = kFamilies[i % 4];
      config.topology = kTopologies[(i / 4) % 3];
      config.body_atoms = kShapes[(i / 12) % 3].first;
      config.fan_out = kShapes[(i / 12) % 3].second;
      config.num_source_relations = 4;
      config.num_target_relations = 4;
      config.max_arity = 2;
      config.num_tgds = 1;
      config.max_existential_vars = 1;
      Scenario generated =
          GenerateScenario(config, InputSeed(seed, i), kInvertCheckFacts);
      cases_.push_back({LoadCase(generated, &parse_ms_), {}});
    }
  }
  size_t size() const override { return cases_.size(); }

  bool Run(size_t i) override {
    Result<ReverseMapping> out = QuasiInverse(cases_[i].scenario.mapping);
    if (!out.ok() || out->partial) return false;
    output_ = std::move(out).value();
    return true;
  }

  bool Check(size_t i, bool first) override {
    Case& c = cases_[i];
    ReverseMapping output = std::move(output_);
    output_ = ReverseMapping{};
    std::string text = output.ToString();
    if (!first) return text == c.reference;
    c.reference = std::move(text);
    if (!output.InequalitiesAmongConstantsOnly()) return false;
    // Theorems 6.7/6.8 on the input's generated instance.
    Result<RoundTrip> trip =
        CheckRoundTrip(c.scenario.mapping, output, c.scenario.source);
    return trip.ok() && trip->sound && trip->faithful;
  }

  // QuasiInverse's public call sequence: Sigma*, then per member MinGen
  // and PruneSubsumedConjunctions (core/quasi_inverse.cc).
  bool RunTraced(size_t i, SpanLog* log) override {
    const SchemaMapping& m = cases_[i].scenario.mapping;
    ScopedSpan op(log, "core.quasi_inverse");
    std::vector<Tgd> sigma_star;
    {
      ScopedSpan span(log, "core.sigma_star");
      sigma_star = SigmaStar(m);
    }
    for (const Tgd& sigma : sigma_star) {
      std::vector<Value> x = sigma.FrontierVariables();
      MinGenStats stats;
      MinGenOptions options;
      options.stats = &stats;
      Result<std::vector<Conjunction>> found = [&] {
        ScopedSpan span(log, "core.mingen");
        return MinGen(m, sigma.rhs, x, options);
      }();
      if (!found.ok() || found->empty()) return false;
      ScopedSpan span(log, "core.prune");
      std::vector<Conjunction> kept =
          PruneSubsumedConjunctions(*found, x, m.source);
      if (kept.empty()) return false;
    }
    return true;
  }

  std::vector<std::string> ReplayOmits() const override { return {"qinv."}; }

 private:
  struct Case {
    Scenario scenario;
    std::string reference;  // the first pass's output, rendered
  };
  std::vector<Case> cases_;
  // The last Run's output; Check consumes it, so no timed op frees a
  // previous op's result.
  ReverseMapping output_;
};

// ---------------------------------------------------------------------------
// exchange: Chase(source, m) over generated scenarios of 1000 facts.

class ExchangeWorkload : public Workload {
 public:
  void Setup(uint64_t seed) override {
    cases_.clear();
    parse_ms_.clear();
    seed_ = seed;
    for (size_t i = 0; i < kExchangeCases; ++i) {
      ScenarioConfig config;
      config.family = kFamilies[i % 4];
      config.topology = kTopologies[(i / 4) % 3];
      config.body_atoms = 2;  // LAV pins it to 1
      config.fan_out = 2;
      config.num_tgds = 4;
      Scenario generated;
      for (uint64_t draw = i;; draw += kExchangeCases) {
        generated =
            GenerateScenario(config, InputSeed(seed, draw), kExchangeFacts);
        if (!HasSelfJoin(generated.mapping)) break;
      }
      cases_.push_back({LoadCase(generated, &parse_ms_), 0, 0});
    }
  }
  size_t size() const override { return cases_.size(); }

  bool Run(size_t i) override {
    const Case& c = cases_[i];
    Result<Instance> out = Chase(c.scenario.source, c.scenario.mapping);
    if (!out.ok()) return false;
    output_ = std::move(out).value();
    return true;
  }

  bool Check(size_t i, bool first) override {
    Case& c = cases_[i];
    Instance output = std::move(output_);
    output_ = EmptyInstance();
    if (!first) {
      return output.Fingerprint() == c.fingerprint &&
             output.NumFacts() == c.num_facts;
    }
    c.fingerprint = output.Fingerprint();
    c.num_facts = output.NumFacts();
    return SatisfiesAll(c.scenario.source, output, c.scenario.mapping);
  }

  // The full-scan chase (use_index=false) is the differential oracle; it
  // is quadratic in the join, so only a seeded sample is compared.
  bool FinalCheck() override {
    Rng rng(InputSeed(seed_, kExchangeCases));
    for (size_t k = 0; k < kExchangeOracleSample; ++k) {
      const Case& c = cases_[rng.Uniform(cases_.size())];
      ChaseOptions options;
      options.use_index = false;
      Result<Instance> indexed = Chase(c.scenario.source, c.scenario.mapping);
      Result<Instance> oracle =
          Chase(c.scenario.source, c.scenario.mapping, options);
      if (!indexed.ok() || !oracle.ok() ||
          oracle->ToString() != indexed->ToString() ||
          indexed->Fingerprint() != c.fingerprint) {
        return false;
      }
    }
    return true;
  }

  bool RunTraced(size_t i, SpanLog* log) override {
    ScopedSpan op(log, "exchange");
    ScopedSpan span(log, "chase");
    return Run(i);
  }

  void Discard(size_t /*i*/) override { output_ = EmptyInstance(); }

  // Trigger collection runs inside Chase, so its time is taken by
  // re-running FindTriggers on every body with a cold plan cache, as the
  // timed op saw it; plan compilation likewise by re-compiling.
  std::map<std::string, double> Shares(size_t i) override {
    const Scenario& s = cases_[i].scenario;
    HomSearchOptions options;
    ClearMatchPlanCache();
    Clock::time_point start = Clock::now();
    for (const Tgd& tgd : s.mapping.tgds) {
      FindTriggers(tgd.lhs, s.source, options);
    }
    double collect_ms = MsSince(start);
    start = Clock::now();
    for (const Tgd& tgd : s.mapping.tgds) {
      CompileMatchPlan(tgd.lhs, s.source, {}, options);
    }
    return {{"chase.collect", collect_ms},
            {"chase.plan_compile", MsSince(start)}};
  }

 private:
  struct Case {
    Scenario scenario;
    uint64_t fingerprint;  // of the first pass's output
    size_t num_facts;
  };
  std::vector<Case> cases_;
  Instance output_ = EmptyInstance();  // of the last Run; Check consumes it
  uint64_t seed_ = 0;
};

// ---------------------------------------------------------------------------
// roundtrip: CheckRoundTrip(m, m', I) with m' = QuasiInverse(m).

class RoundTripWorkload : public Workload {
 public:
  void Setup(uint64_t seed) override {
    cases_.clear();
    parse_ms_.clear();
    for (size_t i = 0; i < kRoundTripCases; ++i) {
      ScenarioConfig config;
      config.family = i % 2 == 0 ? ScenarioFamily::kLav : ScenarioFamily::kGav;
      config.topology = kTopologies[(i / 2) % 3];
      config.body_atoms = 2;  // GAV joins; LAV pins it to 1
      config.fan_out = 1;
      config.num_source_relations = 3;
      config.num_target_relations = 3;
      config.max_arity = 2;
      config.num_tgds = 2;
      config.max_existential_vars = 1;
      Scenario generated;
      for (uint64_t draw = i;; draw += kRoundTripCases) {
        generated =
            GenerateScenario(config, InputSeed(seed, draw), kRoundTripFacts);
        if (!HasSelfJoin(generated.mapping)) break;
      }
      Case c{LoadCase(generated, &parse_ms_), {}, 0};
      Result<ReverseMapping> inverse = QuasiInverse(c.scenario.mapping);
      if (!inverse.ok() || inverse->partial) {
        Die("QuasiInverse in set-up failed on case " + std::to_string(i));
      }
      c.inverse = std::move(inverse).value();
      cases_.push_back(std::move(c));
    }
  }
  size_t size() const override { return cases_.size(); }

  bool Run(size_t i) override {
    const Case& c = cases_[i];
    Result<RoundTrip> trip =
        CheckRoundTrip(c.scenario.mapping, c.inverse, c.scenario.source);
    if (!trip.ok()) return false;
    trip_ = std::move(trip).value();
    return true;
  }

  bool Check(size_t i, bool first) override {
    std::optional<RoundTrip> trip = std::move(trip_);
    trip_.reset();
    if (!trip) return false;
    Case& c = cases_[i];
    if (first) c.leaves = trip->recovered.size();
    return trip->sound && trip->faithful &&
           trip->recovered.size() == c.leaves;
  }

  // CheckRoundTrip's public call sequence (core/soundness.cc). The
  // artifacts are kept in trip_ so Discard, not the op, frees them.
  bool RunTraced(size_t i, SpanLog* log) override {
    const Case& c = cases_[i];
    const SchemaMapping& m = c.scenario.mapping;
    ScopedSpan op(log, "core.round_trip");
    Result<Instance> universal = [&] {
      ScopedSpan span(log, "chase.forward");
      return CachedChase(c.scenario.source, m);
    }();
    if (!universal.ok()) return false;
    Result<std::vector<Instance>> recovered = [&] {
      ScopedSpan span(log, "chase.dchase");
      return DisjunctiveChase(*universal, c.inverse);
    }();
    if (!recovered.ok()) return false;
    RoundTrip trip{std::move(universal).value(),
                   std::move(recovered).value(), {}, false, false,
                   std::nullopt};
    for (const Instance& leaf : trip.recovered) {
      ChaseOptions options;
      options.first_null_label =
          std::max(leaf.MaxNullLabel(), trip.universal.MaxNullLabel()) + 1;
      Result<Instance> rechased = [&] {
        ScopedSpan span(log, "chase.rechase");
        return CachedChase(leaf, m, options);
      }();
      if (!rechased.ok()) return false;
      ScopedSpan span(log, "relational.hom_check");
      if (CachedExistsInstanceHomomorphism(*rechased, trip.universal)) {
        trip.sound = true;
        if (!trip.faithful) {
          trip.faithful =
              CachedExistsInstanceHomomorphism(trip.universal, *rechased);
        }
      }
      trip.rechased.push_back(std::move(rechased).value());
    }
    bool ok = trip.sound && trip.faithful;
    trip_ = std::move(trip);
    return ok;
  }

  void Discard(size_t /*i*/) override { trip_.reset(); }

 private:
  struct Case {
    Scenario scenario;
    ReverseMapping inverse;  // QuasiInverse(m), computed in set-up
    size_t leaves;           // recovered instances on the first pass
  };
  std::vector<Case> cases_;
  std::optional<RoundTrip> trip_;  // of the last Run; Check consumes it
};

// ---------------------------------------------------------------------------
// append: rounds of AddFact + resumed Chase against a ChaseCheckpoint, in
// several independent sessions (one per generated base instance).

class AppendWorkload : public Workload {
 public:
  void Setup(uint64_t seed) override {
    parse_ms_.clear();
    sessions_.clear();
    sessions_.resize(kAppendSessions);
    const size_t rounds = size();

    // Which rounds arrive in arbitrary order: a seeded quarter of them.
    Rng rng(InputSeed(seed, kAppendSessions));
    std::vector<size_t> order(rounds);
    for (size_t r = 0; r < rounds; ++r) order[r] = r;
    for (size_t r = rounds; r > 1; --r) {
      std::swap(order[r - 1], order[rng.Uniform(r)]);
    }
    arbitrary_.assign(rounds, false);
    for (size_t k = 0; k < rounds / 4; ++k) arbitrary_[order[k]] = true;

    for (size_t s = 0; s < kAppendSessions; ++s) {
      Session& session = sessions_[s];
      // One family and topology: mixing them puts the percentiles in the
      // gaps between per-family modes, which moves them from seed to seed.
      ScenarioConfig config;
      config.family = ScenarioFamily::kMixed;
      config.topology = BodyTopology::kChain;
      config.max_arity = 2;
      config.body_atoms = 2;
      config.fan_out = 2;
      config.num_tgds = 4;
      // Mappings where another body reads only the last body's relations
      // would turn key-ordered rounds into diverged replays; the next
      // seeded draw replaces them.
      Scenario generated;
      for (uint64_t draw = s;; draw += kAppendSessions) {
        generated =
            GenerateScenario(config, InputSeed(seed, draw), kAppendBaseFacts);
        if (LastBodyIsolated(generated.mapping)) break;
      }
      session.base = LoadCase(generated, &parse_ms_);

      // Each delta instantiates dependency bodies. A resume fires the
      // recorded and the new triggers dependency by dependency, each list
      // in key order. Key-ordered rounds instantiate the last dependency's
      // body with constants minted here, after every base constant and
      // every earlier round's, so their triggers sort after every recorded
      // one (the append-only fast path). Arbitrary rounds instantiate any
      // body over the base domain (scenario_gen's c1..c<facts/4>), so
      // their triggers interleave with the recorded ones (diverged
      // replay).
      const size_t domain = std::max<size_t>(4, kAppendBaseFacts / 4);
      const std::vector<Tgd>& tgds = session.base.mapping.tgds;
      session.deltas.assign(kAppendRoundsPerSession, {});
      for (size_t k = 0; k < kAppendRoundsPerSession; ++k) {
        const bool arbitrary = arbitrary_[s * kAppendRoundsPerSession + k];
        std::vector<Fact>& delta = session.deltas[k];
        size_t minted = 0;
        while (delta.size() < kAppendDeltaFacts) {
          const Tgd& tgd =
              arbitrary ? tgds[rng.Uniform(tgds.size())] : tgds.back();
          Assignment assignment;
          for (const Value& v : VariablesOf(tgd.lhs)) {
            std::string name;
            if (arbitrary) {
              name = 'c' + std::to_string(1 + rng.Uniform(domain));
            } else {
              name = 'k' + std::to_string(s);
              name += '_' + std::to_string(k);
              name += '_' + std::to_string(minted++);
            }
            assignment.emplace(v, Value::MakeConstant(name));
          }
          for (const Atom& atom :
               ApplyAssignmentToConjunction(tgd.lhs, assignment)) {
            if (delta.size() < kAppendDeltaFacts) {
              delta.push_back({atom.relation, atom.args});
            }
          }
        }
      }

      ChaseOptions options;
      options.incremental = &session.base_checkpoint;
      if (!Chase(session.base.source, session.base.mapping, options).ok()) {
        Die("base chase in set-up failed on session " + std::to_string(s));
      }
    }
    fingerprints_.assign(rounds, 0);
  }
  size_t size() const override {
    return kAppendSessions * kAppendRoundsPerSession;
  }
  bool session() const override { return true; }
  std::string Mode(size_t r) const override {
    return arbitrary_[r] ? "arbitrary" : "keyed";
  }

  // Frees every session's state before copying any base back, so each
  // pass starts from the same heap layout instead of one fragmented by
  // interleaved frees and copies.
  void BeginPass() override {
    for (Session& s : sessions_) {
      s.instance = EmptyInstance();
      s.checkpoint = ChaseCheckpoint{};
      s.output = EmptyInstance();
    }
    for (Session& s : sessions_) {
      s.instance = s.base.source;
      s.checkpoint = s.base_checkpoint;
    }
  }

  bool Run(size_t r) override {
    Session& s = SessionOf(r);
    return AddDelta(s, r) && Resume(s);
  }

  bool Check(size_t r, bool first) override {
    uint64_t fingerprint = SessionOf(r).output.Fingerprint();
    Discard(r);
    if (first) fingerprints_[r] = fingerprint;
    return fingerprint == fingerprints_[r];
  }

  // Keeps only a session's last output (for EndPass), so no timed round
  // frees the previous round's result.
  void Discard(size_t r) override {
    if ((r + 1) % kAppendRoundsPerSession != 0) {
      SessionOf(r).output = EmptyInstance();
    }
  }

  // Each session's resumed result must equal a from-scratch chase of its
  // grown instance. Every pass grows the same instance, so the chase runs
  // on the first pass only.
  bool EndPass() override {
    for (Session& s : sessions_) {
      if (s.expected.empty()) {
        Result<Instance> full = Chase(s.instance, s.base.mapping);
        if (!full.ok()) return false;
        s.expected = full->ToString();
      }
      if (s.output.ToString() != s.expected) return false;
    }
    return true;
  }

  bool RunTraced(size_t r, SpanLog* log) override {
    Session& s = SessionOf(r);
    epoch_ = s.checkpoint.source_epoch;
    ScopedSpan op(log, "append");
    {
      ScopedSpan span(log, "relational.add_fact");
      if (!AddDelta(s, r)) return false;
    }
    ScopedSpan span(log, "chase.resume");
    return Resume(s);
  }

  // Semi-naive collection runs inside the resumed Chase; its time is taken
  // by re-running FindDeltaTriggers against the epoch the round started
  // from.
  std::map<std::string, double> Shares(size_t r) override {
    const Session& s = SessionOf(r);
    HomSearchOptions options;
    Clock::time_point start = Clock::now();
    for (const Tgd& tgd : s.base.mapping.tgds) {
      FindDeltaTriggers(tgd.lhs, s.instance, epoch_, options);
    }
    return {{"chase.delta_collect", MsSince(start)}};
  }

 private:
  struct Session {
    Scenario base;
    ChaseCheckpoint base_checkpoint;
    std::vector<std::vector<Fact>> deltas;  // one per round
    std::string expected;  // from-scratch chase of the grown instance
    // Per-pass state.
    Instance instance = EmptyInstance();
    ChaseCheckpoint checkpoint;
    Instance output = EmptyInstance();
  };

  Session& SessionOf(size_t r) {
    return sessions_[r / kAppendRoundsPerSession];
  }

  static bool AddDelta(Session& s, size_t r) {
    for (const Fact& fact : s.deltas[r % kAppendRoundsPerSession]) {
      if (!s.instance.AddFact(fact.relation, fact.tuple).ok()) return false;
    }
    return true;
  }

  static bool Resume(Session& s) {
    ChaseOptions options;
    options.incremental = &s.checkpoint;
    Result<Instance> out = Chase(s.instance, s.base.mapping, options);
    if (!out.ok()) return false;
    s.output = std::move(out).value();
    return true;
  }

  std::vector<Session> sessions_;
  std::vector<bool> arbitrary_;        // per round
  std::vector<uint64_t> fingerprints_;  // per round, from the first pass
  std::vector<uint32_t> epoch_;        // of the last traced round
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name) {
  if (name == "invert") return std::make_unique<InvertWorkload>();
  if (name == "exchange") return std::make_unique<ExchangeWorkload>();
  if (name == "roundtrip") return std::make_unique<RoundTripWorkload>();
  if (name == "append") return std::make_unique<AppendWorkload>();
  return nullptr;
}

}  // namespace qimap::perfbench
