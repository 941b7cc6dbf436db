#include <gtest/gtest.h>

#include "chase/chase.h"
#include "core/composition.h"
#include "core/implication.h"
#include "core/so_composition.h"
#include "dependency/parser.h"
#include "dependency/satisfaction.h"
#include "relational/homomorphism.h"
#include "relational/instance_enum.h"
#include "workload/paper_catalog.h"
#include "workload/random_mappings.h"
#include "random_testing.h"

namespace qimap {
namespace {

TEST(TermTest, RenderingAndOrdering) {
  Term x = Term::Var(Value::MakeVariable("x"));
  Term fx = Term::Func("f", {x});
  Term gfx = Term::Func("g", {fx});
  EXPECT_EQ(x.ToString(), "x");
  EXPECT_EQ(fx.ToString(), "f(x)");
  EXPECT_EQ(gfx.ToString(), "g(f(x))");
  EXPECT_TRUE(x.IsVariable());
  EXPECT_FALSE(fx.IsVariable());
  EXPECT_TRUE(fx == fx);
  EXPECT_FALSE(fx == gfx);
}

TEST(SkolemizeTest, ExistentialsBecomeFrontierTerms) {
  SchemaMapping m = catalog::Thm48();  // P(x,y) -> ez Q(x,z) & Q(z,y)
  SoMapping so = Skolemize(m);
  ASSERT_EQ(so.implications.size(), 1u);
  const SoImplication& implication = so.implications[0];
  EXPECT_TRUE(implication.equalities.empty());
  ASSERT_EQ(implication.rhs.size(), 2u);
  EXPECT_EQ(SoImplicationToString(implication, *m.source, *m.target),
            "P(x,y) -> Q(x,f1_z(x,y)) & Q(f1_z(x,y),y)");
}

TEST(SkolemizeTest, FullTgdsUnchangedUpToTerms) {
  SchemaMapping m = catalog::Decomposition();
  SoMapping so = Skolemize(m);
  ASSERT_EQ(so.implications.size(), 1u);
  EXPECT_EQ(SoImplicationToString(so.implications[0], *m.source,
                                  *m.target),
            "P(x,y,z) -> Q(x,y) & R(y,z)");
}

TEST(SoChaseTest, AgreesWithStandardChaseUpToEquivalence) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 10007);
    RandomMappingConfig config = JoinedBodyConfig();
    SchemaMapping m = RandomMapping(&rng, config);
    SoMapping so = Skolemize(m);
    Instance i = RandomGroundInstance(m.source, MakeDomain({"a", "b", "c"}),
                                      4, &rng);
    Result<Instance> standard = Chase(i, m);
    Result<Instance> skolem = SoChase(i, so);
    ASSERT_TRUE(standard.ok() && skolem.ok()) << m.ToString();
    EXPECT_TRUE(HomomorphicallyEquivalent(*standard, *skolem))
        << m.ToString() << "\nI: " << i.ToString()
        << "\nstandard: " << standard->ToString()
        << "\nskolem: " << skolem->ToString();
  }
}

TEST(SoChaseTest, SharedFrontierSharesNulls) {
  // Two matches with the same frontier values reuse the same Skolem
  // null, unlike the per-trigger nulls of the standard chase.
  SchemaMapping m = MustParseMapping(
      "P/2", "Q/2", "P(x,u) -> exists y: Q(x,y)");
  // Frontier of the tgd is {x}; u is lhs-only.
  SoMapping so = Skolemize(m);
  Instance i = MustParseInstance(m.source, "P(a,b), P(a,c)");
  Result<Instance> skolem = SoChase(i, so);
  ASSERT_TRUE(skolem.ok());
  EXPECT_EQ(skolem->NumFacts(), 1u);  // both matches produce Q(a, f(a))
}

TEST(SoComposeTest, SelfManagerEqualityAppears) {
  // The flagship example of [5]: Emp(e) -> exists m: Mgr(e,m), composed
  // with Mgr(e,e) -> SelfMgr(e), needs the second-order equality
  // e = f(e).
  SchemaMapping m12 = MustParseMapping("Emp/1", "Mgr/2",
                                       "Emp(e) -> exists m: Mgr(e,m)");
  SchemaMapping m23 = MustParseMapping("Mgr/2", "Mgr'/2, SelfMgr/1",
                                       "Mgr(e,m) -> Mgr'(e,m);"
                                       "Mgr(e,e) -> SelfMgr(e)");
  Result<SoMapping> composed = ComposeSo(m12, m23);
  ASSERT_TRUE(composed.ok());
  bool equality_seen = false;
  for (const SoImplication& implication : composed->implications) {
    if (!implication.equalities.empty()) equality_seen = true;
  }
  EXPECT_TRUE(equality_seen) << composed->ToString();

  // Free interpretation: e = f(e) never holds, so chasing Emp(a) derives
  // Mgr'(a, null) but never SelfMgr(a) — matching the composition
  // semantics (a middle manager distinct from a is allowed).
  Instance i = MustParseInstance(m12.source, "Emp(a)");
  Result<Instance> chased = SoChase(i, *composed);
  ASSERT_TRUE(chased.ok());
  Result<RelationId> selfmgr = m23.target->FindRelation("SelfMgr");
  ASSERT_TRUE(selfmgr.ok());
  EXPECT_EQ(chased->NumRows(*selfmgr), 0u);
  Result<RelationId> mgr = m23.target->FindRelation("Mgr'");
  ASSERT_TRUE(mgr.ok());
  EXPECT_EQ(chased->NumRows(*mgr), 1u);
}

TEST(SoComposeTest, ChaseEquivalentToTwoStepChase) {
  // SoChase with the composed SO tgd is homomorphically equivalent to
  // chasing through the middle schema — including for non-full first
  // mappings, which ComposeFullFirst refuses.
  SchemaMapping m12 = catalog::Thm48();  // non-full
  SchemaMapping m23 = MustParseMapping("Q/2", "W/2, V/1",
                                       "Q(x,y) -> W(x,y);"
                                       "Q(x,x) -> V(x)");
  Result<SoMapping> composed = ComposeSo(m12, m23);
  ASSERT_TRUE(composed.ok());
  Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    Instance i = RandomGroundInstance(m12.source, MakeDomain({"a", "b"}),
                                      3, &rng);
    Instance middle = MustChase(i, m12);
    Instance two_step = MustChase(middle, m23);
    Result<Instance> direct = SoChase(i, *composed);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(HomomorphicallyEquivalent(two_step, *direct))
        << i.ToString() << "\ntwo-step: " << two_step.ToString()
        << "\ndirect: " << direct->ToString();
  }
}

TEST(SoComposeTest, MembershipViaUniversalSolution) {
  // (i,k) ∈ Inst(M12 ∘ M23) iff the SO chase of i maps homomorphically
  // into k; differential-test against the exact oracle.
  SchemaMapping m12 = catalog::Thm48();
  SchemaMapping m23 = MustParseMapping("Q/2", "W/2", "Q(x,y) -> W(x,y)");
  Result<SoMapping> composed = ComposeSo(m12, m23);
  ASSERT_TRUE(composed.ok());
  EnumerationSpace source_space{m12.source, MakeDomain({"a", "b"}), 2};
  EnumerationSpace target_space{m23.target, MakeDomain({"a", "b"}), 2};
  ForEachInstance(source_space, [&](const Instance& i) {
    Result<Instance> universal = SoChase(i, *composed);
    EXPECT_TRUE(universal.ok());
    ForEachInstance(target_space, [&](const Instance& k) {
      Result<bool> oracle = InForwardComposition(m12, m23, i, k);
      EXPECT_TRUE(oracle.ok());
      bool via_chase = ExistsInstanceHomomorphism(*universal, k);
      EXPECT_EQ(*oracle, via_chase)
          << "i = " << i.ToString() << "; k = " << k.ToString()
          << "\nuniversal: " << universal->ToString();
      return true;
    });
    return true;
  });
}

TEST(SoComposeTest, AgreesWithFullFirstUnfoldingWhenBothApply) {
  SchemaMapping m12 = catalog::Decomposition();
  SchemaMapping m23 = MustParseMapping("Q/2, R/2", "P3/2",
                                       "Q(x,y) & R(y,z) -> P3(x,z)");
  Result<SchemaMapping> fo = ComposeFullFirst(m12, m23);
  Result<SoMapping> so = ComposeSo(m12, m23);
  ASSERT_TRUE(fo.ok() && so.ok());
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    Instance i = RandomGroundInstance(m12.source, MakeDomain({"a", "b"}),
                                      3, &rng);
    Instance via_fo = MustChase(i, *fo);
    Result<Instance> via_so = SoChase(i, *so);
    ASSERT_TRUE(via_so.ok());
    EXPECT_TRUE(HomomorphicallyEquivalent(via_fo, *via_so))
        << i.ToString();
  }
}

TEST(SoComposeTest, NestedTermsAriseInChains) {
  // Two existential hops nest Skolem terms: S(x) -> ez T(x,z) composed
  // with T(x,z) -> ew U(z,w) mentions g(f(x))-style values.
  SchemaMapping m12 =
      MustParseMapping("S/1", "T/2", "S(x) -> exists z: T(x,z)");
  SchemaMapping m23 =
      MustParseMapping("T/2", "U/2", "T(x,z) -> exists w: U(z,w)");
  Result<SoMapping> composed = ComposeSo(m12, m23);
  ASSERT_TRUE(composed.ok());
  bool nested = false;
  for (const SoImplication& implication : composed->implications) {
    for (const TermAtom& atom : implication.rhs) {
      for (const Term& term : atom.args) {
        if (!term.IsVariable()) {
          for (const Term& arg : term.args) {
            if (!arg.IsVariable()) nested = true;
          }
        }
      }
    }
  }
  EXPECT_TRUE(nested) << composed->ToString();
  // Both produced values are (distinct) nulls.
  Instance i = MustParseInstance(m12.source, "S(a)");
  Result<Instance> chased = SoChase(i, *composed);
  ASSERT_TRUE(chased.ok());
  ASSERT_EQ(chased->NumFacts(), 1u);
  std::vector<Fact> facts = chased->Facts();
  EXPECT_TRUE(facts[0].tuple[0].IsNull());
  EXPECT_TRUE(facts[0].tuple[1].IsNull());
  EXPECT_NE(facts[0].tuple[0], facts[0].tuple[1]);
}


bool MustMember(const SchemaMapping& m12, const SchemaMapping& m23,
                const Instance& i, const Instance& k) {
  Result<bool> r = InForwardComposition(m12, m23, i, k);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() && *r;
}

// Decomposition followed by projections of the two views.
struct DecompositionThenProject {
  SchemaMapping m12 = catalog::Decomposition();
  SchemaMapping m23 = MustParseMapping("Q/2, R/2", "A/1, B/1",
                                       "Q(x,y) -> A(x); R(y,z) -> B(z)");
};

TEST(ForwardCompositionOracleTest, BasicMembership) {
  DecompositionThenProject f;
  Instance i = MustParseInstance(f.m12.source, "P(a,b,c)");
  Instance good = MustParseInstance(f.m23.target, "A(a), B(c)");
  Instance missing = MustParseInstance(f.m23.target, "A(a)");
  EXPECT_TRUE(MustMember(f.m12, f.m23, i, good));
  EXPECT_FALSE(MustMember(f.m12, f.m23, i, missing));
}

TEST(ForwardCompositionOracleTest, EmptySourceAcceptsEverything) {
  DecompositionThenProject f;
  Instance empty(f.m12.source);
  Instance k = MustParseInstance(f.m23.target, "A(z)");
  EXPECT_TRUE(MustMember(f.m12, f.m23, empty, k));
}

TEST(ForwardCompositionOracleTest, ExistentialMiddleCollapse) {
  // M12 invents a middle value that M23 exports: membership holds when k
  // provides some value for it.
  SchemaMapping m12 =
      MustParseMapping("S/1", "T/2", "S(x) -> exists u: T(x,u)");
  SchemaMapping m23 = MustParseMapping("T/2", "W/1", "T(x,u) -> W(u)");
  Instance i = MustParseInstance(m12.source, "S(a)");
  Instance k = MustParseInstance(m23.target, "W(b)");
  EXPECT_TRUE(MustMember(m12, m23, i, k));
  Instance empty(m23.target);
  EXPECT_FALSE(MustMember(m12, m23, i, empty));
}

TEST(ComposeFullFirstTest, RefusesNonFullFirst) {
  SchemaMapping m12 = catalog::Thm48();  // existential rhs
  SchemaMapping m23 = MustParseMapping("Q/2", "W/1", "Q(x,y) -> W(x)");
  Result<SchemaMapping> composed = ComposeFullFirst(m12, m23);
  EXPECT_FALSE(composed.ok());
  EXPECT_EQ(composed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ComposeFullFirstTest, SimpleUnfolding) {
  DecompositionThenProject f;
  Result<SchemaMapping> composed = ComposeFullFirst(f.m12, f.m23);
  ASSERT_TRUE(composed.ok());
  EXPECT_EQ(composed->tgds.size(), 2u);
  // Both composed rules read P and write A / B.
  for (const Tgd& tgd : composed->tgds) {
    EXPECT_EQ(tgd.lhs.size(), 1u);
    EXPECT_EQ(tgd.lhs[0].relation, 0u);  // P
  }
}

TEST(ComposeFullFirstTest, JoinUnfoldsIntoSelfJoin) {
  SchemaMapping m12 = catalog::Decomposition();
  SchemaMapping m23 = MustParseMapping("Q/2, R/2", "P3/2",
                                       "Q(x,y) & R(y,z) -> P3(x,z)");
  Result<SchemaMapping> composed = ComposeFullFirst(m12, m23);
  ASSERT_TRUE(composed.ok());
  ASSERT_EQ(composed->tgds.size(), 1u);
  // Two P-atoms joined on the middle column.
  EXPECT_EQ(composed->tgds[0].lhs.size(), 2u);
  EXPECT_EQ(composed->tgds[0].rhs.size(), 1u);
}

TEST(ComposeFullFirstTest, AgreesWithOracleOnBoundedPairs) {
  DecompositionThenProject f;
  Result<SchemaMapping> composed = ComposeFullFirst(f.m12, f.m23);
  ASSERT_TRUE(composed.ok());
  EnumerationSpace source_space{f.m12.source, MakeDomain({"a", "b"}), 1};
  EnumerationSpace target_space{f.m23.target, MakeDomain({"a", "b"}), 2};
  ForEachInstance(source_space, [&](const Instance& i) {
    ForEachInstance(target_space, [&](const Instance& k) {
      bool via_oracle = MustMember(f.m12, f.m23, i, k);
      bool via_composed = SatisfiesAll(i, k, *composed);
      EXPECT_EQ(via_oracle, via_composed)
          << "i = " << i.ToString() << "; k = " << k.ToString();
      return true;
    });
    return true;
  });
}

TEST(ComposeFullFirstTest, JoinCaseAgreesWithOracle) {
  SchemaMapping m12 = catalog::Decomposition();
  SchemaMapping m23 = MustParseMapping("Q/2, R/2", "P3/2",
                                       "Q(x,y) & R(y,z) -> P3(x,z)");
  Result<SchemaMapping> composed = ComposeFullFirst(m12, m23);
  ASSERT_TRUE(composed.ok());
  EnumerationSpace source_space{m12.source, MakeDomain({"a", "b"}), 2};
  EnumerationSpace target_space{m23.target, MakeDomain({"a", "b"}), 2};
  ForEachInstance(source_space, [&](const Instance& i) {
    ForEachInstance(target_space, [&](const Instance& k) {
      bool via_oracle = MustMember(m12, m23, i, k);
      bool via_composed = SatisfiesAll(i, k, *composed);
      EXPECT_EQ(via_oracle, via_composed)
          << "i = " << i.ToString() << "; k = " << k.ToString();
      return true;
    });
    return true;
  });
}

TEST(ComposeFullFirstTest, ChaseThroughMiddleEquivalentToComposedChase) {
  SchemaMapping m12 = catalog::Thm410();  // full
  SchemaMapping m23 = MustParseMapping(
      "S1/1, S2/1, R13/1, R14/1, R23/1, R24/1", "Both/1",
      "S1(x) & S2(x) -> Both(x)");
  Result<SchemaMapping> composed = ComposeFullFirst(m12, m23);
  ASSERT_TRUE(composed.ok());
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    Instance i = RandomGroundInstance(m12.source, MakeDomain({"a", "b"}),
                                      3, &rng);
    Instance middle = MustChase(i, m12);
    Instance via_middle = MustChase(middle, m23);
    Instance direct = MustChase(i, *composed);
    EXPECT_TRUE(HomomorphicallyEquivalent(via_middle, direct))
        << i.ToString();
  }
}

TEST(ComposeFullFirstTest, UnproducibleRelationDropsRule) {
  // M23 reads a relation M12 never writes: no composed dependency.
  SchemaMapping m12 = MustParseMapping("P/1", "Q/1", "P(x) -> Q(x)");
  SchemaMapping m23 = MustParseMapping("Q/1, Z/1", "W/1", "Z(x) -> W(x)");
  Result<SchemaMapping> composed = ComposeFullFirst(m12, m23);
  ASSERT_TRUE(composed.ok());
  EXPECT_TRUE(composed->tgds.empty());
}

TEST(ComposeFullFirstTest, ReturnsNoTwoTgdsEqualUpToRenaming) {
  // Both m23 body atoms resolve against either conclusion of m12; the
  // four resolutions unfold into two tgds, each twice under other names.
  SchemaMapping m12 =
      MustParseMapping("S/3", "T/2", "S(x,x,y) -> T(y,x) & T(y,y)");
  SchemaMapping m23 =
      MustParseMapping("T/2", "W/2", "T(x,y) & T(z,x) -> W(z,z)");
  Result<SchemaMapping> composed = ComposeFullFirst(m12, m23);
  ASSERT_TRUE(composed.ok());
  EXPECT_EQ(composed->tgds.size(), 2u) << composed->ToString();
  EXPECT_FALSE(HasRenamedDuplicate(*composed)) << composed->ToString();
  // The two are equivalent to the four, renamed duplicates included.
  SchemaMapping unfolded = MustParseMapping(
      "S/3", "W/2",
      "S(y,y,x) & S(x,x,z) -> W(z,z);"
      "S(u1,u1,x) & S(x,x,z) -> W(z,z);"
      "S(y,y,x) & S(u1,u1,x) -> W(x,x);"
      "S(u1,u1,x) & S(u2,u2,x) -> W(x,x)");
  ASSERT_TRUE(HasRenamedDuplicate(unfolded));
  Result<bool> equivalent = EquivalentTgdSets(*composed, unfolded);
  ASSERT_TRUE(equivalent.ok()) << equivalent.status();
  EXPECT_TRUE(*equivalent) << composed->ToString();
}

TEST(ComposeFullFirstTest, MultipleProducersMultiplyRules) {
  SchemaMapping m12 = catalog::Union();  // P -> S, Q -> S (full)
  SchemaMapping m23 = MustParseMapping("S/1", "W/1", "S(x) -> W(x)");
  Result<SchemaMapping> composed = ComposeFullFirst(m12, m23);
  ASSERT_TRUE(composed.ok());
  // One composed rule per producer of S.
  EXPECT_EQ(composed->tgds.size(), 2u);
}

}  // namespace
}  // namespace qimap
