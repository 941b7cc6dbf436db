// Experiment P1 (DESIGN.md): chase throughput as the instance and the
// dependency set grow — the substrate cost model behind every other
// experiment.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "chase/chase_checkpoint.h"
#include "dependency/parser.h"
#include "relational/instance_enum.h"
#include "workload/paper_catalog.h"
#include "workload/random_mappings.h"
#include "workload/scenario_gen.h"

namespace qimap {

void PrintReport() {
  bench::Banner("P1", "Chase scaling (substrate microbenchmarks)");
  std::printf(
      "  Measures chase cost vs source size, dependency count, and\n"
      "  existential width; no paper counterpart (the paper is "
      "theoretical).\n\n");
}

void BM_ChaseVsSourceSize(benchmark::State& state) {
  SchemaMapping m = catalog::Decomposition();
  Rng rng(1);
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) names.push_back("c" + std::to_string(i));
  Instance i = RandomGroundInstance(m.source, MakeDomain(names),
                                    static_cast<size_t>(state.range(0)),
                                    &rng);
  for (auto _ : state) {
    Result<Instance> u = Chase(i, m);
    benchmark::DoNotOptimize(u.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(i.NumFacts()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ChaseVsSourceSize)->RangeMultiplier(2)->Range(4, 512)
    ->Complexity();

void BM_ChaseVsNumTgds(benchmark::State& state) {
  Rng rng(2);
  RandomMappingConfig config;
  config.num_source_relations = 3;
  config.num_target_relations = 3;
  config.num_tgds = static_cast<size_t>(state.range(0));
  SchemaMapping m = RandomMapping(&rng, config);
  Instance i = RandomGroundInstance(m.source, MakeDomain({"a", "b", "c"}),
                                    10, &rng);
  for (auto _ : state) {
    Result<Instance> u = Chase(i, m);
    benchmark::DoNotOptimize(u.ok());
  }
}
BENCHMARK(BM_ChaseVsNumTgds)->RangeMultiplier(2)->Range(1, 16);

void BM_ChaseJoinLhs(benchmark::State& state) {
  // Prop 3.12's two-atom lhs on a dense random digraph: quadratic match
  // enumeration.
  SchemaMapping m = catalog::Prop312();
  Rng rng(3);
  std::vector<std::string> names;
  for (int i = 0; i < state.range(0); ++i) {
    names.push_back("v" + std::to_string(i));
  }
  Instance i = RandomGroundInstance(
      m.source, MakeDomain(names),
      static_cast<size_t>(state.range(0)) * 2, &rng);
  for (auto _ : state) {
    Result<Instance> u = Chase(i, m);
    benchmark::DoNotOptimize(u.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ChaseJoinLhs)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_ChaseExistentialWidth(benchmark::State& state) {
  // One tgd with a growing number of existential variables in its head.
  Schema source;
  Result<RelationId> p = source.AddRelation("P", 1);
  (void)p;
  Schema target;
  uint32_t width = static_cast<uint32_t>(state.range(0));
  Result<RelationId> t = target.AddRelation("T", width + 1);
  (void)t;
  SchemaMapping m;
  m.source = std::make_shared<const Schema>(std::move(source));
  m.target = std::make_shared<const Schema>(std::move(target));
  Tgd tgd;
  tgd.lhs.push_back(Atom{0, {Value::MakeVariable("x")}});
  Atom head{0, {Value::MakeVariable("x")}};
  for (uint32_t k = 0; k < width; ++k) {
    head.args.push_back(Value::MakeVariable("y" + std::to_string(k)));
  }
  tgd.rhs.push_back(head);
  m.tgds.push_back(tgd);
  Instance i(m.source);
  for (int k = 0; k < 64; ++k) {
    Status status =
        i.AddFact("P", {Value::MakeConstant("c" + std::to_string(k))});
    (void)status;
  }
  for (auto _ : state) {
    Result<Instance> u = Chase(i, m);
    benchmark::DoNotOptimize(u.ok());
  }
}
BENCHMARK(BM_ChaseExistentialWidth)->RangeMultiplier(2)->Range(1, 16);

// Append-heavy workload for the incremental delta-chase: entity rows
// arrive in P and Q keyed by a shared id, joined by a two-atom
// dependency through that (leading, so the hash index serves both
// directions) key. Each round appends a few fresh entities and
// re-derives the solution — the editing pattern the checkpoint is built
// for. The full-rechase loop pays the whole join again every round; the
// incremental loop resumes the checkpoint and only pays for the delta
// (zero-padded ids keep the delta triggers sorted after the recorded
// ones, so the append-only fast path engages). Both loops must produce
// the identical final instance.
void RunIncrementalPhase(bench::JsonReporter& reporter) {
  bench::Banner("P1b", "Incremental delta-chase vs full re-chase");
  SchemaMapping m = MustParseMapping(
      "P/2, Q/2", "T/3", "P(x,y) & Q(x,z) -> exists w: T(y,z,w)");
  auto name = [](const char* prefix, int i) {
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "%s%05d", prefix, i);
    return Value::MakeConstant(buffer);
  };
  auto add_entity = [&](Instance* inst, int i) {
    Status p = inst->AddFact("P", {name("v", i), name("a", i)});
    Status q = inst->AddFact("Q", {name("v", i), name("b", i)});
    (void)p;
    (void)q;
  };
  constexpr int kBase = 1600;
  constexpr int kRounds = 50;
  constexpr int kAppend = 2;
  Instance base(m.source);
  for (int i = 0; i < kBase; ++i) add_entity(&base, i);

  auto now = [] { return std::chrono::steady_clock::now(); };
  auto seconds = [](std::chrono::steady_clock::time_point a,
                    std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  Result<Instance> full_final = Chase(base, m);
  auto full_start = now();
  {
    Instance grown = base;
    full_final = Chase(grown, m);
    int next = kBase;
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k < kAppend; ++k, ++next) add_entity(&grown, next);
      full_final = Chase(grown, m);
      benchmark::DoNotOptimize(full_final.ok());
    }
  }
  double full_seconds = seconds(full_start, now());
  reporter.AddPhase("full_rechase", full_seconds);

  Result<Instance> incremental_final = Chase(base, m);
  ChaseStats last_stats;
  auto incr_start = now();
  {
    Instance grown = base;
    ChaseCheckpoint checkpoint;
    ChaseOptions options;
    options.incremental = &checkpoint;
    incremental_final = Chase(grown, m, options);  // records the base run
    int next = kBase;
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k < kAppend; ++k, ++next) add_entity(&grown, next);
      incremental_final = Chase(grown, m, options, &last_stats);
      benchmark::DoNotOptimize(incremental_final.ok());
    }
  }
  double incr_seconds = seconds(incr_start, now());
  reporter.AddPhase("incremental_rechase", incr_seconds);

  bool identical = full_final.ok() && incremental_final.ok() &&
                   full_final->ToString() == incremental_final->ToString();
  double speedup = incr_seconds > 0 ? full_seconds / incr_seconds : 0;
  char speedup_text[64];
  std::snprintf(speedup_text, sizeof(speedup_text), "%.1fx (%.3fs vs %.3fs)",
                speedup, full_seconds, incr_seconds);
  bench::Row("incremental result == full re-chase", "identical",
             bench::YesNo(identical));
  bench::Row("incremental speedup (50 append rounds)", ">= 3x", speedup_text);
  bench::Row("last resume", "resumed",
             last_stats.resumed
                 ? "delta_facts=" + std::to_string(last_stats.delta_facts) +
                       " checks_skipped=" +
                       std::to_string(last_stats.checks_skipped)
                 : "NOT RESUMED");
  bench::Verdict(identical && last_stats.resumed && speedup >= 3.0);
}

// Corpus-scale phase for the columnar store: a million-fact LAV corpus
// from the scenario generator (the same engine behind qimap_gen — the
// (config, seed) pair pins the corpus byte-for-byte) chased through the
// per-column posting lists. This is the ROADMAP #4 remainder: the other
// benches stress shapes, none stressed size, so the store's O(1)
// distinct stats and full-tuple dedup slot table were never measured at
// the scale service mode cares about.
void RunScaledCorpusPhase(bench::JsonReporter& reporter) {
  bench::Banner("P1c", "Columnar store at corpus scale (million facts)");
  ScenarioConfig config;
  config.family = ScenarioFamily::kLav;
  config.topology = BodyTopology::kChain;
  config.num_source_relations = 6;
  config.num_target_relations = 6;
  config.max_arity = 3;
  config.num_tgds = 6;
  config.fan_out = 2;
  config.max_existential_vars = 2;
  constexpr size_t kFacts = 1000000;
  Scenario scenario = GenerateScenario(config, /*seed=*/312, kFacts);
  ChaseOptions options;
  options.max_steps = 1u << 24;  // a million-fact corpus outgrows the
                                 // default step valve
  ChaseStats stats;
  size_t target_facts = 0;
  double seconds = 0;
  {
    auto start = std::chrono::steady_clock::now();
    bench::JsonReporter::ScopedPhase phase(reporter, "million_fact_corpus");
    Result<Instance> chased =
        Chase(scenario.source, scenario.mapping, options, &stats);
    seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (!chased.ok()) {
      bench::Row("million-fact chase", "completes", "FAILED");
      bench::Verdict(false);
      return;
    }
    target_facts = chased->NumFacts();
  }
  char throughput[64];
  std::snprintf(throughput, sizeof(throughput), "%.0f facts/s",
                seconds > 0 ? static_cast<double>(stats.facts_added) / seconds
                            : 0.0);
  bench::Row("source facts", "1000000",
             std::to_string(scenario.source.NumFacts()));
  bench::Row("target facts derived", "> source",
             std::to_string(target_facts));
  bench::Row("chase throughput", "-", throughput);
  bench::Verdict(scenario.source.NumFacts() == kFacts &&
                 target_facts >= kFacts);
}

}  // namespace qimap

int main(int argc, char** argv) {
  qimap::PrintReport();
  benchmark::Initialize(&argc, argv);
  qimap::bench::JsonReporter reporter("chase_scaling");
  {
    qimap::bench::JsonReporter::ScopedPhase phase(reporter, "benchmarks");
    benchmark::RunSpecifiedBenchmarks();
  }
  qimap::RunIncrementalPhase(reporter);
  qimap::RunScaledCorpusPhase(reporter);
  reporter.Write();
  return 0;
}
