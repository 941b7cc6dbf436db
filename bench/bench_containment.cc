// Containment-oracle microbenchmarks: cost of deciding Sigma ⊆ Sigma'
// as the dependency set grows, the syntactic fast path vs the chase
// path, and the generator throughput that feeds the corpus pipelines.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "core/containment.h"
#include "workload/scenario_gen.h"

namespace qimap {

void PrintReport() {
  bench::Banner("P8", "Mapping containment oracle");
  std::printf(
      "  Measures the chase-based containment decision (Sigma |= Sigma')\n"
      "  over generated workloads; no paper counterpart (the paper is\n"
      "  theoretical).\n\n");
}

ScenarioConfig BenchConfig(size_t num_tgds) {
  ScenarioConfig config;
  config.family = ScenarioFamily::kMixed;
  config.topology = BodyTopology::kChain;
  config.num_tgds = num_tgds;
  config.body_atoms = 2;
  return config;
}

// Weakened copy: last rhs conjunct of each multi-conjunct head dropped.
SchemaMapping Weakened(const SchemaMapping& m) {
  SchemaMapping weak = m;
  for (Tgd& tgd : weak.tgds) {
    if (tgd.rhs.size() > 1) tgd.rhs.pop_back();
  }
  return weak;
}

void BM_ContainmentVsNumTgds(benchmark::State& state) {
  Scenario s = GenerateScenario(
      BenchConfig(static_cast<size_t>(state.range(0))), 11, 0);
  SchemaMapping weak = Weakened(s.mapping);
  for (auto _ : state) {
    Result<ContainmentReport> report =
        CheckContainment(s.mapping, weak);
    benchmark::DoNotOptimize(report.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(weak.tgds.size()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ContainmentVsNumTgds)->RangeMultiplier(2)->Range(2, 32)
    ->Complexity();

void BM_ContainmentSyntacticFastPath(benchmark::State& state) {
  // Sigma ⊆ Sigma: every dependency is a textual member, zero chases.
  Scenario s = GenerateScenario(BenchConfig(8), 13, 0);
  for (auto _ : state) {
    Result<ContainmentReport> report =
        CheckContainment(s.mapping, s.mapping);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_ContainmentSyntacticFastPath);

void BM_ContainmentChasePath(benchmark::State& state) {
  Scenario s = GenerateScenario(BenchConfig(8), 13, 0);
  SchemaMapping weak = Weakened(s.mapping);
  for (auto _ : state) {
    Result<ContainmentReport> report = CheckContainment(s.mapping, weak);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_ContainmentChasePath);

void BM_ScenarioGeneration(benchmark::State& state) {
  ScenarioConfig config = BenchConfig(4);
  size_t facts = static_cast<size_t>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    Scenario s = GenerateScenario(config, seed++, facts);
    benchmark::DoNotOptimize(s.source.NumFacts());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(facts));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ScenarioGeneration)->RangeMultiplier(8)->Range(64, 32768)
    ->Complexity();

}  // namespace qimap

int main(int argc, char** argv) {
  qimap::PrintReport();
  benchmark::Initialize(&argc, argv);
  qimap::bench::JsonReporter reporter("containment");
  {
    qimap::bench::JsonReporter::ScopedPhase phase(reporter, "benchmarks");
    benchmark::RunSpecifiedBenchmarks();
  }
  reporter.Write();
  return 0;
}
