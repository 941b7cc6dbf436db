// Experiment X2 (extensions): the composition operator (the paper's
// companion operator, Section 1). The full-first unfolding agrees with
// the exact membership oracle on bounded instance pairs, chasing through
// the middle schema is equivalent to chasing with the composed mapping,
// and the composed size scales with the number of producers per consumed
// relation.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "core/composition.h"
#include "core/so_composition.h"
#include "dependency/parser.h"
#include "dependency/satisfaction.h"
#include "relational/homomorphism.h"
#include "relational/instance_enum.h"
#include "workload/paper_catalog.h"
#include "workload/random_mappings.h"

namespace qimap {

void PrintReport() {
  bench::Banner("X2", "Extensions: the composition operator");
  bool all_ok = true;

  SchemaMapping m12 = catalog::Decomposition();
  SchemaMapping m23 = MustParseMapping("Q/2, R/2", "P3/2",
                                       "Q(x,y) & R(y,z) -> P3(x,z)");
  Result<SchemaMapping> composed = ComposeFullFirst(m12, m23);
  if (!composed.ok()) return;
  std::printf("  Decomposition ∘ (Q & R -> P3):\n");
  for (const Tgd& tgd : composed->tgds) {
    bench::Artifact(TgdToString(tgd, *composed->source, *composed->target));
  }

  // Agreement with the oracle over a bounded pair space.
  size_t pairs = 0;
  size_t agreements = 0;
  EnumerationSpace source_space{m12.source, MakeDomain({"a", "b"}), 2};
  EnumerationSpace target_space{m23.target, MakeDomain({"a", "b"}), 2};
  ForEachInstance(source_space, [&](const Instance& i) {
    ForEachInstance(target_space, [&](const Instance& k) {
      ++pairs;
      Result<bool> oracle = InForwardComposition(m12, m23, i, k);
      if (oracle.ok() && *oracle == SatisfiesAll(i, k, *composed)) {
        ++agreements;
      }
      return true;
    });
    return true;
  });
  bench::Row("unfolding vs exact oracle agreement",
             std::to_string(pairs) + "/" + std::to_string(pairs),
             std::to_string(agreements) + "/" + std::to_string(pairs));
  all_ok = all_ok && agreements == pairs;

  // Chase-through-middle equivalence on random instances.
  Rng rng(17);
  size_t equivalent = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Instance i = RandomGroundInstance(m12.source,
                                      MakeDomain({"a", "b", "c"}), 4, &rng);
    Instance middle = MustChase(i, m12);
    Instance via_middle = MustChase(middle, m23);
    Instance direct = MustChase(i, *composed);
    if (HomomorphicallyEquivalent(via_middle, direct)) ++equivalent;
  }
  bench::Row("chase∘chase ≡ chase of composition (10 random I)", "10/10",
             std::to_string(equivalent) + "/10");
  all_ok = all_ok && equivalent == 10;

  // The general (second-order) composition: the non-full first hop that
  // ComposeFullFirst refuses, including the famous self-manager equality.
  SchemaMapping emp = MustParseMapping("Emp/1", "Mgr/2",
                                       "Emp(e) -> exists m: Mgr(e,m)");
  SchemaMapping mgr = MustParseMapping("Mgr/2", "Mgr'/2, SelfMgr/1",
                                       "Mgr(e,m) -> Mgr'(e,m);"
                                       "Mgr(e,e) -> SelfMgr(e)");
  Result<SoMapping> so = ComposeSo(emp, mgr);
  if (so.ok()) {
    std::printf("  Emp ∘ Mgr (second-order):\n");
    for (const SoImplication& implication : so->implications) {
      bench::Artifact(
          SoImplicationToString(implication, *so->source, *so->target));
    }
    bool has_equality = false;
    for (const SoImplication& implication : so->implications) {
      if (!implication.equalities.empty()) has_equality = true;
    }
    bench::Row("second-order equality e = f(e) appears", "yes",
               bench::YesNo(has_equality));
    size_t so_equivalent = 0;
    Rng so_rng(29);
    for (int trial = 0; trial < 10; ++trial) {
      Instance i = RandomGroundInstance(emp.source, MakeDomain({"a", "b"}),
                                        2, &so_rng);
      Instance two_step = MustChase(MustChase(i, emp), mgr);
      Result<Instance> direct = SoChase(i, *so);
      if (direct.ok() && HomomorphicallyEquivalent(two_step, *direct)) {
        ++so_equivalent;
      }
    }
    bench::Row("SO chase ≡ two-step chase (10 random I)", "10/10",
               std::to_string(so_equivalent) + "/10");
    all_ok = all_ok && has_equality && so_equivalent == 10;
  }
  bench::Verdict(all_ok);
}

void BM_ComposeSo(benchmark::State& state) {
  SchemaMapping m12 = catalog::Thm48();
  SchemaMapping m23 = MustParseMapping("Q/2", "W/2, V/1",
                                       "Q(x,y) -> W(x,y); Q(x,x) -> V(x)");
  for (auto _ : state) {
    Result<SoMapping> composed = ComposeSo(m12, m23);
    benchmark::DoNotOptimize(composed.ok());
  }
}
BENCHMARK(BM_ComposeSo);

void BM_SoChase(benchmark::State& state) {
  SchemaMapping m12 = catalog::Thm48();
  SchemaMapping m23 = MustParseMapping("Q/2", "W/2, V/1",
                                       "Q(x,y) -> W(x,y); Q(x,x) -> V(x)");
  Result<SoMapping> composed = ComposeSo(m12, m23);
  Rng rng(59);
  Instance i = RandomGroundInstance(m12.source,
                                    MakeDomain({"a", "b", "c", "d"}),
                                    static_cast<size_t>(state.range(0)),
                                    &rng);
  for (auto _ : state) {
    Result<Instance> chased = SoChase(i, *composed);
    benchmark::DoNotOptimize(chased.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SoChase)->RangeMultiplier(2)->Range(2, 32)->Complexity();

void BM_ComposeFullFirst(benchmark::State& state) {
  // Producers multiply: n unary source relations all feeding S, composed
  // with a two-atom join over S.
  int n = static_cast<int>(state.range(0));
  std::string source_decl;
  std::string deps;
  for (int k = 0; k < n; ++k) {
    source_decl += (k > 0 ? ", P" : "P") + std::to_string(k) + "/1";
    deps += "P" + std::to_string(k) + "(x) -> S(x);";
  }
  SchemaMapping m12 = MustParseMapping(source_decl, "S/1", deps);
  SchemaMapping m23 =
      MustParseMapping("S/1", "W/1", "S(x) & S(x) -> W(x)");
  for (auto _ : state) {
    Result<SchemaMapping> composed = ComposeFullFirst(m12, m23);
    benchmark::DoNotOptimize(composed.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ComposeFullFirst)->DenseRange(1, 8)->Complexity();

void BM_ForwardCompositionOracle(benchmark::State& state) {
  SchemaMapping m12 = catalog::Decomposition();
  SchemaMapping m23 = MustParseMapping("Q/2, R/2", "P3/2",
                                       "Q(x,y) & R(y,z) -> P3(x,z)");
  Rng rng(23);
  Instance i = RandomGroundInstance(m12.source, MakeDomain({"a", "b"}),
                                    static_cast<size_t>(state.range(0)),
                                    &rng);
  Instance k = RandomGroundInstance(m23.target, MakeDomain({"a", "b"}), 2,
                                    &rng);
  for (auto _ : state) {
    Result<bool> member = InForwardComposition(m12, m23, i, k);
    benchmark::DoNotOptimize(member.ok());
  }
}
BENCHMARK(BM_ForwardCompositionOracle)->DenseRange(1, 4);

}  // namespace qimap

int main(int argc, char** argv) {
  qimap::PrintReport();
  benchmark::Initialize(&argc, argv);
  qimap::bench::JsonReporter reporter("composition");
  {
    qimap::bench::JsonReporter::ScopedPhase phase(reporter, "benchmarks");
    benchmark::RunSpecifiedBenchmarks();
  }
  reporter.Write();
  return 0;
}
