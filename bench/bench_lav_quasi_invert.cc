// Experiment E4 (DESIGN.md): Proposition 3.11 — every LAV schema mapping
// has the (=, ~M)-subset property, hence a quasi-inverse. Sweeps random
// LAV mappings and reports the fraction verified; benchmarks the subset
// check as the mapping grows.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/framework.h"
#include "relational/instance_enum.h"
#include "workload/paper_catalog.h"
#include "workload/random_mappings.h"

namespace qimap {

void PrintReport() {
  bench::Banner("E4",
                "Proposition 3.11: every LAV mapping is quasi-invertible");
  bool all_ok = true;

  // Paper catalog LAV entries.
  std::vector<std::pair<std::string, SchemaMapping>> all =
      catalog::AllMappings();
  for (auto& [name, m] : all) {
    if (!m.IsLav()) continue;
    BoundedSpace space{MakeDomain({"a", "b"}),
                       name == "Example4.5" ? size_t{1} : size_t{2}};
    FrameworkChecker checker(m, space);
    Result<BoundedCheckReport> report = checker.CheckSubsetProperty(
        EquivKind::kEquality, EquivKind::kSimM);
    if (!report.ok()) continue;
    bench::Row(name + " (=, ~M)-subset property", "yes",
               bench::YesNo(report->holds));
    all_ok = all_ok && report->holds;
  }

  // Random LAV sweep.
  size_t verified = 0;
  const size_t kTrials = 25;
  for (uint64_t seed = 1; seed <= kTrials; ++seed) {
    Rng rng(seed * 6151);
    RandomMappingConfig config;
    config.num_source_relations = 2;
    config.num_target_relations = 2;
    config.num_tgds = 2;
    SchemaMapping m = RandomMapping(&rng, config);
    FrameworkChecker checker(m, {MakeDomain({"a", "b"}), 2});
    Result<BoundedCheckReport> report = checker.CheckSubsetProperty(
        EquivKind::kEquality, EquivKind::kSimM);
    if (report.ok() && report->holds) ++verified;
  }
  bench::Row("random LAV mappings passing (25 seeds)", "25/25",
             std::to_string(verified) + "/" + std::to_string(kTrials));
  all_ok = all_ok && verified == kTrials;
  bench::Verdict(all_ok);
}

void BM_SubsetPropertyRandomLav(benchmark::State& state) {
  Rng rng(static_cast<uint64_t>(state.range(0)) * 6151 + 1);
  RandomMappingConfig config;
  config.num_source_relations = 2;
  config.num_target_relations = 2;
  config.num_tgds = static_cast<size_t>(state.range(0));
  SchemaMapping m = RandomMapping(&rng, config);
  for (auto _ : state) {
    FrameworkChecker checker(m, {MakeDomain({"a", "b"}), 2});
    Result<BoundedCheckReport> report = checker.CheckSubsetProperty(
        EquivKind::kEquality, EquivKind::kSimM);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_SubsetPropertyRandomLav)->DenseRange(1, 4);

void BM_SubsetPropertyVsDomainSize(benchmark::State& state) {
  SchemaMapping m = catalog::Union();
  std::vector<std::string> names;
  for (int i = 0; i < state.range(0); ++i) {
    names.push_back(std::string(1, static_cast<char>('a' + i)));
  }
  for (auto _ : state) {
    FrameworkChecker checker(m, {MakeDomain(names), 2});
    Result<BoundedCheckReport> report = checker.CheckSubsetProperty(
        EquivKind::kEquality, EquivKind::kSimM);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_SubsetPropertyVsDomainSize)->DenseRange(2, 5);

}  // namespace qimap

int main(int argc, char** argv) {
  qimap::PrintReport();
  benchmark::Initialize(&argc, argv);
  qimap::bench::JsonReporter reporter("lav_quasi_invert");
  {
    qimap::bench::JsonReporter::ScopedPhase phase(reporter, "benchmarks");
    benchmark::RunSpecifiedBenchmarks();
  }
  reporter.Write();
  return 0;
}
