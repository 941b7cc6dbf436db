// Experiment E5 (DESIGN.md): Proposition 3.12 — the full s-t tgd
// E(x,z) & E(z,y) -> F(x,y) & M(z) has no quasi-inverse. The bounded
// checker finds a concrete (~M, ~M)-subset-property counterexample.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "core/framework.h"
#include "core/solution_space.h"
#include "relational/instance_enum.h"
#include "workload/paper_catalog.h"

namespace qimap {

void PrintReport() {
  bench::Banner("E5",
                "Proposition 3.12: a full s-t tgd with no quasi-inverse");
  SchemaMapping m = catalog::Prop312();
  std::printf("  Sigma: %s", m.ToString().c_str());
  FrameworkChecker checker(m, {MakeDomain({"a", "b", "c"}), 4});
  Result<BoundedCheckReport> report =
      checker.CheckSubsetProperty(EquivKind::kSimM, EquivKind::kSimM);
  if (!report.ok()) {
    std::printf("  check failed: %s\n", report.status().ToString().c_str());
    return;
  }
  bench::Row("(~M, ~M)-subset property", "fails",
             report->holds ? "holds (?)" : "fails");
  bool ok = !report->holds;
  if (report->counterexample.has_value()) {
    const Instance& i1 = report->counterexample->i1;
    const Instance& i2 = report->counterexample->i2;
    bench::Artifact("I1 = {" + i1.ToString() + "}");
    bench::Artifact("I2 = {" + i2.ToString() + "}");
    Result<bool> contained = SolutionsContained(m, i2, i1);
    if (contained.ok()) {
      bench::Row("counterexample has Sol(I2) ⊆ Sol(I1)", "yes",
                 bench::YesNo(*contained));
      ok = ok && *contained;
    }
  }
  bench::Row("hence: no quasi-inverse exists (Theorem 3.5)", "yes",
             bench::YesNo(ok));
  // Contrast: the smaller full-tgd fragments keep the property.
  SchemaMapping decomposition = catalog::Decomposition();
  FrameworkChecker c2(decomposition, {MakeDomain({"a", "b", "c"}), 2});
  Result<BoundedCheckReport> contrast =
      c2.CheckSubsetProperty(EquivKind::kSimM, EquivKind::kSimM);
  if (contrast.ok()) {
    bench::Row("contrast: Decomposition (also full) keeps it", "yes",
               bench::YesNo(contrast->holds));
    ok = ok && contrast->holds;
  }
  bench::Verdict(ok);
}

void BM_Prop312CounterexampleSearch(benchmark::State& state) {
  SchemaMapping m = catalog::Prop312();
  for (auto _ : state) {
    FrameworkChecker checker(
        m, {MakeDomain({"a", "b", "c"}), static_cast<size_t>(state.range(0))});
    Result<BoundedCheckReport> report =
        checker.CheckSubsetProperty(EquivKind::kSimM, EquivKind::kSimM);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_Prop312CounterexampleSearch)->DenseRange(2, 4);

Instance Chain(const SchemaMapping& m, int edges) {
  Instance chain(m.source);
  for (int i = 0; i < edges; ++i) {
    Status status = chain.AddFact(
        "E", {Value::MakeConstant("v" + std::to_string(i)),
              Value::MakeConstant("v" + std::to_string(i + 1))});
    (void)status;
  }
  return chain;
}

void BM_Prop312ChaseOfPaths(benchmark::State& state) {
  // Chase throughput on a growing E-chain a1 -> a2 -> ... -> an.
  SchemaMapping m = catalog::Prop312();
  Instance chain = Chain(m, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Result<Instance> u = Chase(chain, m);
    benchmark::DoNotOptimize(u.ok());
  }
}
BENCHMARK(BM_Prop312ChaseOfPaths)->RangeMultiplier(4)->Range(4, 256);

void BM_Prop312ChaseOfPathsNoIndex(benchmark::State& state) {
  // Same chain, but with the per-relation hash index disabled so the
  // matcher falls back to full scans — the differential partner of
  // BM_Prop312ChaseOfPaths.
  SchemaMapping m = catalog::Prop312();
  Instance chain = Chain(m, static_cast<int>(state.range(0)));
  ChaseOptions naive;
  naive.use_index = false;
  for (auto _ : state) {
    Result<Instance> u = Chase(chain, m, naive);
    benchmark::DoNotOptimize(u.ok());
  }
}
BENCHMARK(BM_Prop312ChaseOfPathsNoIndex)->RangeMultiplier(4)->Range(4, 256);

// Timed differential, recorded as chase_plan / chase_noindex phases in
// BENCH_prop_312.json. The lhs E(x,z) & E(z,y) is a genuine join: the
// full-scan matcher re-reads the whole E relation for the second atom of
// every candidate, the compiled match plans probe the per-column posting
// lists (and collapse fully-determined satisfaction checks to one
// full-tuple hash lookup). The 2000-edge chain is chased at full length
// through the plans (the hot path). The full-scan oracle only has to
// *agree*, not to race, so its differential leg runs a 150-edge chain:
// full-scan backtracking is quadratic in the chain, and keeping the oracle
// short keeps the committed hom.backtracks baseline an honest measure of
// the planned path instead of the oracle's.
void DifferentialPhases(bench::JsonReporter& reporter) {
  SchemaMapping m = catalog::Prop312();
  Instance long_chain = Chain(m, 2000);
  Instance oracle_chain = Chain(m, 150);
  ChaseOptions planned;  // default: use_index
  ChaseOptions naive;
  naive.use_index = false;
  std::string plan_short, without_index;
  {
    bench::JsonReporter::ScopedPhase phase(reporter, "chase_plan");
    benchmark::DoNotOptimize(MustChase(long_chain, m, planned).ToString());
    plan_short = MustChase(oracle_chain, m, planned).ToString();
  }
  {
    bench::JsonReporter::ScopedPhase phase(reporter, "chase_noindex");
    without_index = MustChase(oracle_chain, m, naive).ToString();
  }
  bench::Row("compiled-plan chase output matches full-scan", "identical",
             plan_short == without_index ? "identical" : "different");
}

}  // namespace qimap

int main(int argc, char** argv) {
  qimap::PrintReport();
  benchmark::Initialize(&argc, argv);
  qimap::bench::JsonReporter reporter("prop_312");
  qimap::DifferentialPhases(reporter);
  {
    qimap::bench::JsonReporter::ScopedPhase phase(reporter, "benchmarks");
    benchmark::RunSpecifiedBenchmarks();
  }
  reporter.Write();
  return 0;
}
