#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/budget.h"
#include "core/mingen.h"
#include "core/quasi_inverse.h"
#include "core/sigma_star.h"
#include "dependency/parser.h"
#include "workload/paper_catalog.h"

namespace qimap {
namespace {

Value Var(const char* name) { return Value::MakeVariable(name); }

// True iff some member of `generators` equals `expected` up to renaming of
// the non-x variables.
bool ContainsGenerator(const std::vector<Conjunction>& generators,
                       const Conjunction& expected,
                       const std::vector<Value>& x) {
  for (const Conjunction& g : generators) {
    if (g.size() == expected.size() &&
        IsSubConjunctionUpToRenaming(expected, g, x) &&
        IsSubConjunctionUpToRenaming(g, expected, x)) {
      return true;
    }
  }
  return false;
}

TEST(IsGeneratorTest, LhsIsAlwaysAGenerator) {
  SchemaMapping m = catalog::Thm48();
  const Tgd& tgd = m.tgds[0];
  Result<bool> is_gen =
      IsGenerator(m, tgd.lhs, tgd.rhs, tgd.FrontierVariables());
  ASSERT_TRUE(is_gen.ok());
  EXPECT_TRUE(*is_gen);
}

TEST(IsGeneratorTest, WrongAtomIsNot) {
  SchemaMapping m = catalog::Example45();
  // U(x1) generates S(x1,x1,y) & Q(y,y); T(x1,x1) alone does not (its
  // chase yields S(x1,x1,x1) but no Q-fact).
  Result<Tgd> sigma2 = ParseTgd(
      *m.source, *m.target, "P(x1,x1,x3) -> exists y: S(x1,x1,y) & Q(y,y)");
  ASSERT_TRUE(sigma2.ok());
  std::vector<Value> x = {Var("x1")};
  Result<RelationId> u = m.source->FindRelation("U");
  Result<RelationId> t = m.source->FindRelation("T");
  ASSERT_TRUE(u.ok() && t.ok());
  Conjunction u_atom = {{*u, {Var("x1")}}};
  Conjunction t_atom = {{*t, {Var("x1"), Var("x1")}}};
  EXPECT_TRUE(*IsGenerator(m, u_atom, sigma2->rhs, x));
  EXPECT_FALSE(*IsGenerator(m, t_atom, sigma2->rhs, x));
}

TEST(SubConjunctionTest, RenamingOfFreshVariables) {
  SchemaMapping m = catalog::Example45();
  Result<RelationId> t = m.source->FindRelation("T");
  ASSERT_TRUE(t.ok());
  std::vector<Value> x = {Var("x1")};
  Conjunction a = {{*t, {Var("w"), Var("x1")}}};
  Conjunction b = {{*t, {Var("v"), Var("x1")}},
                   {*t, {Var("x1"), Var("v")}}};
  EXPECT_TRUE(IsSubConjunctionUpToRenaming(a, b, x));
  EXPECT_FALSE(IsSubConjunctionUpToRenaming(b, a, x));
  // x variables never rename: T(x1,w) is not a sub-conjunction of
  // {T(w,x1)} for frozen x1 in first position mismatch.
  Conjunction c = {{*t, {Var("x1"), Var("w")}}};
  Conjunction d = {{*t, {Var("w"), Var("x1")}}};
  EXPECT_FALSE(IsSubConjunctionUpToRenaming(c, d, x));
}

TEST(SubConjunctionTest, InjectivityOfRenaming) {
  SchemaMapping m = catalog::Example45();
  Result<RelationId> t = m.source->FindRelation("T");
  ASSERT_TRUE(t.ok());
  std::vector<Value> x;
  // T(u,v) embeds into {T(w,w)} only if u,v may map to the same variable;
  // renamings are bijective, so it must not.
  Conjunction uv = {{*t, {Var("u"), Var("v")}}};
  Conjunction ww = {{*t, {Var("w"), Var("w")}}};
  EXPECT_FALSE(IsSubConjunctionUpToRenaming(uv, ww, x));
  EXPECT_TRUE(IsSubConjunctionUpToRenaming(ww, uv, x) == false);
}

TEST(MinGenTest, ProjectionGenerators) {
  SchemaMapping m = catalog::Projection();
  const Tgd& tgd = m.tgds[0];  // P(x,y) -> Q(x)
  Result<std::vector<Conjunction>> gens =
      MinGen(m, tgd.rhs, tgd.FrontierVariables());
  ASSERT_TRUE(gens.ok());
  // The subset-minimal generators are P(x,z) and its diagonal collapse
  // P(x,x); after hom-subsumption pruning only the general P(x,z)
  // remains (the paper's "the only generator").
  Result<RelationId> p = m.source->FindRelation("P");
  Conjunction expected = {{*p, {Var("x"), Var("w")}}};
  EXPECT_TRUE(ContainsGenerator(*gens, expected, {Var("x")}));
  std::vector<Conjunction> pruned =
      PruneSubsumedConjunctions(*gens, {Var("x")}, m.source);
  ASSERT_EQ(pruned.size(), 1u);
  EXPECT_TRUE(ContainsGenerator(pruned, expected, {Var("x")}));
}

TEST(MinGenTest, UnionHasTwoGenerators) {
  SchemaMapping m = catalog::Union();
  const Tgd& tgd = m.tgds[0];  // P(x) -> S(x)
  Result<std::vector<Conjunction>> gens =
      MinGen(m, tgd.rhs, tgd.FrontierVariables());
  ASSERT_TRUE(gens.ok());
  // Both P(x) and Q(x) generate S(x).
  EXPECT_EQ(gens->size(), 2u);
}

TEST(MinGenTest, Example45SigmaOneSingleGeneratorAfterPruning) {
  SchemaMapping m = catalog::Example45();
  const Tgd& sigma1 = m.tgds[0];
  std::vector<Value> x = sigma1.FrontierVariables();
  Result<std::vector<Conjunction>> gens = MinGen(m, sigma1.rhs, x);
  ASSERT_TRUE(gens.ok());
  // The paper: "the only generator of exists y (S(x1,x2,y) & Q(y,y)) is
  // P(x1,x2,x3)" — its diagonal collapses P(x1,x2,x1), P(x1,x2,x2) are
  // subset-minimal too but hom-subsumed by it.
  std::vector<Conjunction> pruned =
      PruneSubsumedConjunctions(*gens, x, m.source);
  ASSERT_EQ(pruned.size(), 1u);
  Result<RelationId> p = m.source->FindRelation("P");
  Conjunction expected = {{*p, {Var("x1"), Var("x2"), Var("w")}}};
  EXPECT_TRUE(ContainsGenerator(pruned, expected, x));
}

TEST(MinGenTest, Example45SigmaTwoHasAllFourPaperGenerators) {
  SchemaMapping m = catalog::Example45();
  Result<Tgd> sigma2 = ParseTgd(
      *m.source, *m.target, "P(x1,x1,x3) -> exists y: S(x1,x1,y) & Q(y,y)");
  ASSERT_TRUE(sigma2.ok());
  std::vector<Value> x = {Var("x1")};
  Result<std::vector<Conjunction>> gens = MinGen(m, sigma2->rhs, x);
  ASSERT_TRUE(gens.ok());

  Result<RelationId> p = m.source->FindRelation("P");
  Result<RelationId> u = m.source->FindRelation("U");
  Result<RelationId> t = m.source->FindRelation("T");
  Result<RelationId> r = m.source->FindRelation("R");
  Conjunction gen1 = {{*p, {Var("x1"), Var("x1"), Var("w1")}}};
  Conjunction gen2 = {{*u, {Var("x1")}}};
  Conjunction gen3 = {{*t, {Var("x1"), Var("x1")}},
                      {*r, {Var("x1"), Var("x1"), Var("w1")}}};
  Conjunction gen4 = {{*t, {Var("w1"), Var("x1")}},
                      {*r, {Var("w1"), Var("w1"), Var("w2")}}};
  EXPECT_TRUE(ContainsGenerator(*gens, gen1, x)) << "P(x1,x1,x3)";
  EXPECT_TRUE(ContainsGenerator(*gens, gen2, x)) << "U(x1)";
  EXPECT_TRUE(ContainsGenerator(*gens, gen3, x))
      << "T(x1,x1) & R(x1,x1,x4)";
  EXPECT_TRUE(ContainsGenerator(*gens, gen4, x))
      << "T(x3,x1) & R(x3,x3,x4)";
}

TEST(MinGenTest, EveryResultIsAMinimalGenerator) {
  SchemaMapping m = catalog::Example45();
  Result<Tgd> sigma2 = ParseTgd(
      *m.source, *m.target, "P(x1,x1,x3) -> exists y: S(x1,x1,y) & Q(y,y)");
  ASSERT_TRUE(sigma2.ok());
  std::vector<Value> x = {Var("x1")};
  Result<std::vector<Conjunction>> gens = MinGen(m, sigma2->rhs, x);
  ASSERT_TRUE(gens.ok());
  for (size_t i = 0; i < gens->size(); ++i) {
    EXPECT_TRUE(*IsGenerator(m, (*gens)[i], sigma2->rhs, x));
    for (size_t j = 0; j < gens->size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(IsSubConjunctionUpToRenaming((*gens)[j], (*gens)[i], x))
          << "result " << i << " contains result " << j;
    }
  }
}

TEST(MinGenTest, CandidateBudgetEnforced) {
  SchemaMapping m = catalog::Example45();
  const Tgd& sigma1 = m.tgds[0];
  MinGenOptions options;
  options.max_candidates = 2;
  Result<std::vector<Conjunction>> gens =
      MinGen(m, sigma1.rhs, sigma1.FrontierVariables(), options);
  EXPECT_FALSE(gens.ok());
  EXPECT_EQ(gens.status().code(), StatusCode::kResourceExhausted);
}

// A budget trip hands back the specializations found so far: every one
// is a generator, though not necessarily a minimal one.
TEST(MinGenTest, PartialResultHoldsOnlyGenerators) {
  SchemaMapping m = catalog::Example45();
  Result<Tgd> sigma2 = ParseTgd(
      *m.source, *m.target, "P(x1,x1,x3) -> exists y: S(x1,x1,y) & Q(y,y)");
  ASSERT_TRUE(sigma2.ok());
  std::vector<Value> x = {Var("x1")};
  MinGenStats stats;
  std::vector<Conjunction> partial;
  MinGenOptions options;
  options.max_candidates = 6;
  options.stats = &stats;
  options.partial_out = &partial;
  Result<std::vector<Conjunction>> gens =
      MinGen(m, sigma2->rhs, x, options);
  ASSERT_FALSE(gens.ok());
  EXPECT_EQ(gens.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(stats.partial);
  ASSERT_FALSE(partial.empty());
  for (const Conjunction& g : partial) {
    Result<bool> is_generator = IsGenerator(m, g, sigma2->rhs, x);
    ASSERT_TRUE(is_generator.ok());
    EXPECT_TRUE(*is_generator) << ConjunctionToString(g, *m.source);
  }
}

// The minimization pass is quadratic in the specializations, so it
// checks the deadline too: a clock that runs out just after the last
// specialization still ends the run, handing back every specialization.
TEST(MinGenTest, MinimizationHonorsTheDeadline) {
  SchemaMapping m = catalog::Example45();
  Result<Tgd> sigma2 = ParseTgd(
      *m.source, *m.target, "P(x1,x1,x3) -> exists y: S(x1,x1,y) & Q(y,y)");
  ASSERT_TRUE(sigma2.ok());
  std::vector<Value> x = {Var("x1")};
  // A full run counts its clock reads; minimization makes the last one
  // per specialization.
  uint64_t reads = 0;
  BudgetSpec counting;
  counting.deadline_us = 1000;
  counting.clock = [&reads] {
    ++reads;
    return uint64_t{0};
  };
  Budget counted(counting);
  MinGenStats full;
  MinGenOptions options;
  options.stats = &full;
  options.budget = &counted;
  ASSERT_TRUE(MinGen(m, sigma2->rhs, x, options).ok());
  ASSERT_GT(full.candidates, 1u);
  const uint64_t before_minimization = reads - full.candidates;

  // The same run on a clock that jumps past the deadline right there.
  uint64_t late_reads = 0;
  BudgetSpec late;
  late.deadline_us = 1000;
  late.clock = [&late_reads, before_minimization] {
    return ++late_reads > before_minimization ? uint64_t{1} << 40 : 0;
  };
  Budget deadline(late);
  MinGenStats stats;
  std::vector<Conjunction> partial;
  options.stats = &stats;
  options.budget = &deadline;
  options.partial_out = &partial;
  Result<std::vector<Conjunction>> gens =
      MinGen(m, sigma2->rhs, x, options);
  ASSERT_FALSE(gens.ok());
  EXPECT_EQ(gens.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(deadline.tripped(), BudgetLimit::kDeadline);
  EXPECT_TRUE(stats.partial);
  EXPECT_EQ(stats.candidates, full.candidates);
  EXPECT_EQ(partial.size(), full.candidates);
}

// Source relations that no tgd mentions add no cover, so they leave the
// search, its counters and its answer unchanged. The 1,000-step valve
// fails any search that enumerates conjunctions over the source schema:
// these mappings have tens of thousands of candidate conjunctions.
TEST(MinGenTest, UnusedSourceRelationsDoNotWidenTheSearch) {
  const char* kJoin = "P(x,y) & R(y,z) -> Q(x,z) & U(z,x)";
  std::vector<std::string> answers;
  std::vector<size_t> candidates;
  std::vector<size_t> covers;
  for (const char* source :
       {"P/2, R/2", "P/2, R/2, S/2", "P/2, R/2, S/2, T/2"}) {
    SCOPED_TRACE(source);
    SchemaMapping m = MustParseMapping(source, "Q/2, U/2", kJoin);
    std::string answer;
    size_t run_candidates = 0;
    size_t run_covers = 0;
    for (const Tgd& sigma : SigmaStar(m)) {
      MinGenStats stats;
      MinGenOptions options;
      options.max_candidates = 1000;
      options.stats = &stats;
      Result<std::vector<Conjunction>> gens =
          MinGen(m, sigma.rhs, sigma.FrontierVariables(), options);
      ASSERT_TRUE(gens.ok()) << gens.status().ToString();
      for (const Conjunction& g : *gens) {
        answer += ConjunctionToString(g, *m.source) + "\n";
      }
      run_candidates += stats.candidates;
      run_covers += stats.covers;
    }
    answers.push_back(answer);
    candidates.push_back(run_candidates);
    covers.push_back(run_covers);
  }
  EXPECT_EQ(answers[1], answers[0]);
  EXPECT_EQ(answers[2], answers[0]);
  EXPECT_EQ(candidates[1], candidates[0]);
  EXPECT_EQ(candidates[2], candidates[0]);
  EXPECT_EQ(covers[1], covers[0]);
  EXPECT_EQ(covers[2], covers[0]);

  // A LAV mapping with a three-tgd Sigma, under the same valve.
  SchemaMapping lav = MustParseMapping(
      "P/3, R/3, S/3", "Q/3, U/3",
      "P(x,y,w) -> exists z: Q(x,z,w) & U(z,y,w); R(x,y,w) -> U(x,y,w); "
      "S(x,y,w) -> Q(x,y,y)");
  for (const Tgd& sigma : SigmaStar(lav)) {
    MinGenOptions options;
    options.max_candidates = 1000;
    Result<std::vector<Conjunction>> gens =
        MinGen(lav, sigma.rhs, sigma.FrontierVariables(), options);
    ASSERT_TRUE(gens.ok()) << gens.status().ToString();
    EXPECT_FALSE(gens->empty());
  }
}

// Generators range over variables only, so a psi (or tgd) with a constant
// argument is rejected instead of resolved as if it were a variable.
TEST(MinGenTest, RejectsNonVariableArguments) {
  SchemaMapping m = catalog::Projection();  // P(x,y) -> Q(x)
  Conjunction psi = m.tgds[0].rhs;
  psi[0].args[0] = Value::MakeConstant("a");
  Result<std::vector<Conjunction>> gens = MinGen(m, psi, {});
  ASSERT_FALSE(gens.ok());
  EXPECT_EQ(gens.status().code(), StatusCode::kInvalidArgument);
}

TEST(MinGenTest, Lemma44BoundRespected) {
  SchemaMapping m = catalog::Prop312();  // lhs size 2, rhs size 2
  const Tgd& tgd = m.tgds[0];
  Result<std::vector<Conjunction>> gens =
      MinGen(m, tgd.rhs, tgd.FrontierVariables());
  ASSERT_TRUE(gens.ok());
  for (const Conjunction& g : *gens) {
    EXPECT_LE(g.size(), 4u);  // s1*s2 = 2*2
  }
}

}  // namespace
}  // namespace qimap
