// Experiment P3 (DESIGN.md): MinGen's cost as the source schema and the
// generator width grow. MinGen resolves psi backward through the tgds'
// conclusions (covers, their rewritings and the rewritings'
// specializations), so its work follows the tgds that can produce psi,
// not the size of the source schema.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/mingen.h"
#include "dependency/parser.h"
#include "workload/paper_catalog.h"

namespace qimap {

void PrintReport() {
  bench::Banner("P3", "MinGen by backward resolution");
  SchemaMapping m = catalog::Example45();
  Result<Tgd> sigma2 = ParseTgd(
      *m.source, *m.target, "P(x1,x1,x3) -> exists y: S(x1,x1,y) & Q(y,y)");
  if (!sigma2.ok()) return;
  std::vector<Value> x = {Value::MakeVariable("x1")};
  MinGenStats stats;
  MinGenOptions options;
  options.stats = &stats;
  Result<std::vector<Conjunction>> gens = MinGen(m, sigma2->rhs, x, options);
  if (!gens.ok()) return;
  bench::Row("Example 4.5 sigma2", "4 generators after pruning",
             std::to_string(stats.covers) + " covers, " +
                 std::to_string(stats.candidates) + " specializations, " +
                 std::to_string(gens->size()) + " minimal generators");
  std::printf("\n");
}

void BM_MinGenVsSchemaWidth(benchmark::State& state) {
  // Growing numbers of unary source relations all generating S(x): one
  // cover, and one generator, per relation.
  Schema source;
  for (int k = 0; k < state.range(0); ++k) {
    Result<RelationId> id =
        source.AddRelation("P" + std::to_string(k), 1);
    (void)id;
  }
  Schema target;
  Result<RelationId> s = target.AddRelation("S", 1);
  (void)s;
  SchemaMapping m;
  m.source = std::make_shared<const Schema>(std::move(source));
  m.target = std::make_shared<const Schema>(std::move(target));
  for (RelationId r = 0; r < m.source->size(); ++r) {
    Tgd tgd;
    tgd.lhs.push_back(Atom{r, {Value::MakeVariable("x")}});
    tgd.rhs.push_back(Atom{0, {Value::MakeVariable("x")}});
    m.tgds.push_back(tgd);
  }
  const Tgd& first = m.tgds[0];
  std::vector<Value> x = first.FrontierVariables();
  for (auto _ : state) {
    Result<std::vector<Conjunction>> gens = MinGen(m, first.rhs, x);
    benchmark::DoNotOptimize(gens.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinGenVsSchemaWidth)->DenseRange(1, 8)->Complexity();

void BM_MinGenVsGeneratorWidth(benchmark::State& state) {
  // A chain mapping whose generator needs `n` joined source atoms:
  // E1(x,z1) & E2(z1,z2) & ... -> T(x) via a single n-atom lhs tgd.
  int n = static_cast<int>(state.range(0));
  Schema source;
  for (int k = 0; k < n; ++k) {
    Result<RelationId> id =
        source.AddRelation("E" + std::to_string(k), 2);
    (void)id;
  }
  Schema target;
  Result<RelationId> t = target.AddRelation("T", 1);
  (void)t;
  SchemaMapping m;
  m.source = std::make_shared<const Schema>(std::move(source));
  m.target = std::make_shared<const Schema>(std::move(target));
  Tgd tgd;
  Value x = Value::MakeVariable("x");
  Value prev = x;
  for (int k = 0; k < n; ++k) {
    Value next = Value::MakeVariable("u" + std::to_string(k));
    tgd.lhs.push_back(Atom{static_cast<RelationId>(k), {prev, next}});
    prev = next;
  }
  tgd.rhs.push_back(Atom{0, {x}});
  m.tgds.push_back(tgd);
  std::vector<Value> frontier = {x};
  MinGenOptions options;
  options.max_candidates = 1u << 24;
  for (auto _ : state) {
    Result<std::vector<Conjunction>> gens =
        MinGen(m, m.tgds[0].rhs, frontier, options);
    benchmark::DoNotOptimize(gens.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinGenVsGeneratorWidth)->DenseRange(1, 3)->Complexity();

}  // namespace qimap

int main(int argc, char** argv) {
  qimap::PrintReport();
  benchmark::Initialize(&argc, argv);
  qimap::bench::JsonReporter reporter("mingen");
  {
    qimap::bench::JsonReporter::ScopedPhase phase(reporter, "benchmarks");
    benchmark::RunSpecifiedBenchmarks();
  }
  reporter.Write();
  return 0;
}
