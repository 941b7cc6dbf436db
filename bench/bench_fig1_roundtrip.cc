// Experiment E1 (DESIGN.md): Figure 1 / Example 6.1 — the bidirectional
// data-exchange round trip of the Decomposition mapping, with both of its
// quasi-inverses M' and M''. Regenerates every instance in the figure and
// benchmarks the three chase stages.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "chase/disjunctive_chase.h"
#include "core/soundness.h"
#include "relational/homomorphism.h"
#include "workload/paper_catalog.h"

namespace qimap {

void PrintReport() {
  bench::Banner("E1", "Figure 1: round trips of the Decomposition mapping");
  SchemaMapping m = catalog::Decomposition();
  Instance i = catalog::Fig1Instance(m);
  std::printf("  I  = %s\n", i.ToString().c_str());
  Instance u = MustChase(i, m);
  std::printf("  U  = chase_Sigma(I) = %s\n", u.ToString().c_str());
  bench::Row("U matches Figure 1",
             "Q(a,b),Q(a',b),R(b,c),R(b,c')",
             u.ToString());

  // Left path: M' = Q(x,y) & R(y,z) -> P(x,y,z).
  ReverseMapping join = catalog::DecompositionQuasiInverseJoin(m);
  Result<RoundTrip> trip1 = CheckRoundTrip(m, join, i);
  if (!trip1.ok()) {
    std::printf("  round trip failed: %s\n",
                trip1.status().ToString().c_str());
    return;
  }
  std::printf("  V1 = chase_Sigma'(U) = %s\n",
              trip1->recovered[0].ToString().c_str());
  std::printf("  chase_Sigma(V1)     = %s\n",
              trip1->rechased[0].ToString().c_str());
  bench::Row("chase(V1) identical to U", "identical",
             trip1->rechased[0] == u ? "identical" : "different");
  bench::Row("M' faithful w.r.t. M", "yes", bench::YesNo(trip1->faithful));
  bool left_ok = trip1->rechased[0] == u && trip1->faithful && trip1->sound;

  // Right path: M'' = Q(x,y) -> ez P(x,y,z); R(y,z) -> ex P(x,y,z).
  ReverseMapping split = catalog::DecompositionQuasiInverseSplit(m);
  Result<RoundTrip> trip2 = CheckRoundTrip(m, split, i);
  if (!trip2.ok()) {
    std::printf("  round trip failed: %s\n",
                trip2.status().ToString().c_str());
    return;
  }
  std::printf("  V2 = chase_Sigma''(U) = %s\n",
              trip2->recovered[0].ToString().c_str());
  std::printf("  U2 = chase_Sigma(V2)  = %s\n",
              trip2->rechased[0].ToString().c_str());
  bench::Row("U2 has extra null rows", "yes",
             bench::YesNo(trip2->rechased[0].NumFacts() > u.NumFacts()));
  bench::Row("U2 homomorphically equivalent to U", "yes",
             bench::YesNo(
                 HomomorphicallyEquivalent(trip2->rechased[0], u)));
  bench::Row("M'' faithful w.r.t. M", "yes",
             bench::YesNo(trip2->faithful));
  bool right_ok = trip2->faithful && trip2->sound &&
                  trip2->rechased[0].NumFacts() > u.NumFacts();
  bench::Verdict(left_ok && right_ok);
}

// A scaled-up Figure 1 source: N wide P rows whose middle column fans
// into 20 shared join keys, so the rhs-satisfaction probe into the
// growing target dominates the chase. This is where the per-relation
// hash index pays: the full-scan path re-reads every Q and R row per
// trigger (quadratic), the indexed path probes by first column.
Instance ScaledFig1Source(const SchemaMapping& m, int rows) {
  Instance big(m.source);
  for (int i = 0; i < rows; ++i) {
    Status status = big.AddFact(
        "P", {Value::MakeConstant("x" + std::to_string(i)),
              Value::MakeConstant("y" + std::to_string(i % 20)),
              Value::MakeConstant("z" + std::to_string(i))});
    (void)status;
  }
  return big;
}

// Timed indexed-vs-naive differential on the scaled source, recorded as
// chase_indexed / chase_noindex phases in BENCH_fig1_roundtrip.json so
// bench_report's summary carries the speedup.
void DifferentialPhases(bench::JsonReporter& reporter) {
  SchemaMapping m = catalog::Decomposition();
  Instance big = ScaledFig1Source(m, 3000);
  ChaseOptions indexed;
  indexed.use_index = true;
  ChaseOptions naive;
  naive.use_index = false;
  std::string with_index, without_index;
  {
    bench::JsonReporter::ScopedPhase phase(reporter, "chase_indexed");
    with_index = MustChase(big, m, indexed).ToString();
  }
  {
    bench::JsonReporter::ScopedPhase phase(reporter, "chase_noindex");
    without_index = MustChase(big, m, naive).ToString();
  }
  bench::Row("indexed chase output matches full-scan", "identical",
             with_index == without_index ? "identical" : "different");
}

void BM_Fig1ForwardChase(benchmark::State& state) {
  SchemaMapping m = catalog::Decomposition();
  Instance i = catalog::Fig1Instance(m);
  for (auto _ : state) {
    Result<Instance> u = Chase(i, m);
    benchmark::DoNotOptimize(u.ok());
  }
}
BENCHMARK(BM_Fig1ForwardChase);

void BM_Fig1ForwardChaseNoIndex(benchmark::State& state) {
  SchemaMapping m = catalog::Decomposition();
  Instance i = catalog::Fig1Instance(m);
  ChaseOptions naive;
  naive.use_index = false;
  for (auto _ : state) {
    Result<Instance> u = Chase(i, m, naive);
    benchmark::DoNotOptimize(u.ok());
  }
}
BENCHMARK(BM_Fig1ForwardChaseNoIndex);

void BM_Fig1ReverseChaseJoin(benchmark::State& state) {
  SchemaMapping m = catalog::Decomposition();
  ReverseMapping join = catalog::DecompositionQuasiInverseJoin(m);
  Instance u = MustChase(catalog::Fig1Instance(m), m);
  for (auto _ : state) {
    Result<std::vector<Instance>> v = DisjunctiveChase(u, join);
    benchmark::DoNotOptimize(v.ok());
  }
}
BENCHMARK(BM_Fig1ReverseChaseJoin);

void BM_Fig1ReverseChaseSplit(benchmark::State& state) {
  SchemaMapping m = catalog::Decomposition();
  ReverseMapping split = catalog::DecompositionQuasiInverseSplit(m);
  Instance u = MustChase(catalog::Fig1Instance(m), m);
  for (auto _ : state) {
    Result<std::vector<Instance>> v = DisjunctiveChase(u, split);
    benchmark::DoNotOptimize(v.ok());
  }
}
BENCHMARK(BM_Fig1ReverseChaseSplit);

void BM_Fig1FullRoundTrip(benchmark::State& state) {
  SchemaMapping m = catalog::Decomposition();
  ReverseMapping split = catalog::DecompositionQuasiInverseSplit(m);
  Instance i = catalog::Fig1Instance(m);
  for (auto _ : state) {
    Result<RoundTrip> trip = CheckRoundTrip(m, split, i);
    benchmark::DoNotOptimize(trip.ok());
  }
}
BENCHMARK(BM_Fig1FullRoundTrip);

}  // namespace qimap

int main(int argc, char** argv) {
  qimap::PrintReport();
  benchmark::Initialize(&argc, argv);
  qimap::bench::JsonReporter reporter("fig1_roundtrip");
  qimap::DifferentialPhases(reporter);
  {
    qimap::bench::JsonReporter::ScopedPhase phase(reporter, "benchmarks");
    benchmark::RunSpecifiedBenchmarks();
  }
  reporter.Write();
  return 0;
}
