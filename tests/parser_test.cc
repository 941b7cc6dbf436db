#include <gtest/gtest.h>

#include "dependency/parser.h"

#include "base/rng.h"
#include "core/inverse.h"
#include "core/quasi_inverse.h"
#include "core/so_composition.h"
#include "workload/paper_catalog.h"
#include "workload/random_mappings.h"
#include "random_testing.h"

namespace qimap {
namespace {

TEST(ParserTest, PlainTgd) {
  SchemaMapping m = MustParseMapping("P/2", "Q/1", "P(x,y) -> Q(x)");
  ASSERT_EQ(m.tgds.size(), 1u);
  EXPECT_EQ(m.tgds[0].lhs.size(), 1u);
  EXPECT_EQ(m.tgds[0].rhs.size(), 1u);
}

TEST(ParserTest, MultipleDependenciesSemicolonAndNewline) {
  SchemaMapping m = MustParseMapping("P/1, Q/1", "S/1",
                                     "P(x) -> S(x)\nQ(x) -> S(x)");
  EXPECT_EQ(m.tgds.size(), 2u);
  SchemaMapping m2 = MustParseMapping("P/1, Q/1", "S/1",
                                      "P(x) -> S(x); Q(x) -> S(x);");
  EXPECT_EQ(m2.tgds.size(), 2u);
}

TEST(ParserTest, CommentsIgnored) {
  SchemaMapping m = MustParseMapping(
      "P/1", "S/1", "# a comment line\nP(x) -> S(x)  # trailing");
  EXPECT_EQ(m.tgds.size(), 1u);
}

TEST(ParserTest, ExplicitExistsAccepted) {
  SchemaMapping m = MustParseMapping("P/1", "Q/2",
                                     "P(x) -> exists y: Q(x,y)");
  EXPECT_EQ(m.tgds[0].ExistentialVariables().size(), 1u);
}

TEST(ParserTest, ImplicitExistentialInferred) {
  SchemaMapping m = MustParseMapping("P/1", "Q/2", "P(x) -> Q(x,y)");
  EXPECT_EQ(m.tgds[0].ExistentialVariables().size(), 1u);
}

TEST(ParserTest, ErrorOnUnknownRelation) {
  Result<SchemaMapping> m = ParseMapping("P/1", "Q/1", "P(x) -> Z(x)");
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, ErrorOnArityMismatch) {
  EXPECT_FALSE(ParseMapping("P/2", "Q/1", "P(x) -> Q(x)").ok());
}

TEST(ParserTest, ErrorOnMissingArrow) {
  EXPECT_FALSE(ParseMapping("P/1", "Q/1", "P(x) Q(x)").ok());
}

TEST(ParserTest, ErrorOnGarbageCharacters) {
  EXPECT_FALSE(ParseMapping("P/1", "Q/1", "P(x) -> Q(x) $").ok());
  EXPECT_FALSE(ParseMapping("P/1", "Q/1", "P(x) - Q(x)").ok());
  EXPECT_FALSE(ParseMapping("P/1", "Q/1", "P(x) ! -> Q(x)").ok());
}

TEST(ParserTest, TgdRejectsDisjunctiveFeatures) {
  SchemaMapping m = MustParseMapping("P/1", "Q/1", "P(x) -> Q(x)");
  EXPECT_FALSE(ParseTgd(*m.source, *m.target,
                        "P(x) & Constant(x) -> Q(x)")
                   .ok());
  EXPECT_FALSE(ParseTgd(*m.source, *m.target, "P(x) -> Q(x) | Q(x)").ok());
}

TEST(ParserTest, DisjunctiveTgdFull) {
  SchemaMapping m = MustParseMapping("P/3", "Q/2, R/2",
                                     "P(x,y,z) -> Q(x,y) & R(y,z)");
  ReverseMapping rev = MustParseReverseMapping(
      m,
      "Q(x,y) & R(y,z) & Constant(x) & Constant(y) & x != y "
      "-> P(x,y,z) | (exists w: P(x,y,w))");
  const DisjunctiveTgd& dep = rev.deps[0];
  EXPECT_EQ(dep.lhs.size(), 2u);
  EXPECT_EQ(dep.constant_vars.size(), 2u);
  EXPECT_EQ(dep.inequalities.size(), 1u);
  EXPECT_EQ(dep.disjuncts.size(), 2u);
}

TEST(ParserTest, ConstantVariableMustOccurInLhsAtom) {
  SchemaMapping m = MustParseMapping("P/1", "Q/1", "P(x) -> Q(x)");
  Result<ReverseMapping> bad =
      ParseReverseMapping(m, "Q(x) & Constant(w) -> P(x)");
  EXPECT_FALSE(bad.ok());
}

TEST(ParserTest, InequalityVariablesMustOccurInLhsAtom) {
  SchemaMapping m = MustParseMapping("P/1", "Q/1", "P(x) -> Q(x)");
  EXPECT_FALSE(ParseReverseMapping(m, "Q(x) & x != w -> P(x)").ok());
}

TEST(ParserTest, RoundTripPrinting) {
  SchemaMapping m = MustParseMapping("P/3", "Q/2, R/2",
                                     "P(x,y,z) -> Q(x,y) & R(y,z)");
  ReverseMapping rev = MustParseReverseMapping(
      m, "Q(x,y) & Constant(x) -> (exists z: P(x,y,z)) | P(x,y,y)");
  std::string printed = DisjunctiveTgdToString(rev.deps[0], *m.target,
                                               *m.source);
  EXPECT_EQ(printed,
            "Q(x,y) & Constant(x) -> (exists z: P(x,y,z)) | (P(x,y,y))");
  // Re-parse the printed form: must yield the same dependency.
  ReverseMapping reparsed = MustParseReverseMapping(m, printed);
  EXPECT_TRUE(reparsed.deps[0] == rev.deps[0]);
}

TEST(ParserTest, PrimedVariablesAndRelations) {
  SchemaMapping m = MustParseMapping("P/2, T/1", "P'/2, Q/1, T'/1",
                                     "P(x,y) -> P'(x,y); T(x) -> T'(x)");
  EXPECT_EQ(m.tgds.size(), 2u);
}


// Printer-parser round trip on randomized mappings: ToString output is
// valid DSL that reparses to the identical dependency.
TEST(ParserRoundTripTest, RandomTgdsReparseIdentically) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 2417);
    RandomMappingConfig config = JoinedBodyConfig();
    config.max_arity = 3;
    SchemaMapping m = RandomMapping(&rng, config);
    for (const Tgd& tgd : m.tgds) {
      std::string printed = TgdToString(tgd, *m.source, *m.target);
      Result<Tgd> reparsed = ParseTgd(*m.source, *m.target, printed);
      ASSERT_TRUE(reparsed.ok()) << printed;
      EXPECT_TRUE(*reparsed == tgd) << printed;
    }
  }
}

TEST(ParserRoundTripTest, QuasiInverseOutputsReparseIdentically) {
  std::vector<std::pair<std::string, SchemaMapping>> all =
      catalog::AllMappings();
  for (auto& [name, m] : all) {
    if (name == "Prop3.12" || name == "Example4.5") continue;
    ReverseMapping rev = MustQuasiInverse(m);
    for (const DisjunctiveTgd& dep : rev.deps) {
      std::string printed =
          DisjunctiveTgdToString(dep, *m.target, *m.source);
      Result<DisjunctiveTgd> reparsed =
          ParseDisjunctiveTgd(*m.target, *m.source, printed);
      ASSERT_TRUE(reparsed.ok()) << name << ": " << printed;
      EXPECT_TRUE(*reparsed == dep) << name << ": " << printed;
    }
  }
}

TEST(ParserRoundTripTest, InverseOutputsReparseIdentically) {
  SchemaMapping m = catalog::Example54();
  ReverseMapping rev = MustInverseAlgorithm(m);
  for (const DisjunctiveTgd& dep : rev.deps) {
    std::string printed = DisjunctiveTgdToString(dep, *m.target, *m.source);
    Result<DisjunctiveTgd> reparsed =
        ParseDisjunctiveTgd(*m.target, *m.source, printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_TRUE(*reparsed == dep) << printed;
  }
}

TEST(ParserRoundTripTest, ComposedMappingsReparseIdentically) {
  SchemaMapping m12 = catalog::Decomposition();
  SchemaMapping m23 = MustParseMapping("Q/2, R/2", "P3/2",
                                       "Q(x,y) & R(y,z) -> P3(x,z)");
  Result<SchemaMapping> composed = ComposeFullFirst(m12, m23);
  ASSERT_TRUE(composed.ok());
  for (const Tgd& tgd : composed->tgds) {
    std::string printed =
        TgdToString(tgd, *composed->source, *composed->target);
    Result<Tgd> reparsed =
        ParseTgd(*composed->source, *composed->target, printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_TRUE(*reparsed == tgd) << printed;
  }
}


// Fuzz-ish robustness: random token soup must never crash — every input
// yields either a parse or an InvalidArgument status.
TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  SchemaMapping m = MustParseMapping("P/2, Q/1", "R/2, S/1",
                                     "P(x,y) -> R(x,y)");
  const char* tokens[] = {"P",  "Q",  "R",      "S",  "x",  "y",
                          "(",  ")",  ",",      "&",  "|",  "->",
                          "!=", ":",  "exists", "Constant", " "};
  Rng rng(424242);
  for (int trial = 0; trial < 400; ++trial) {
    std::string soup;
    int len = rng.UniformInt(1, 14);
    for (int k = 0; k < len; ++k) {
      soup += tokens[rng.Uniform(sizeof(tokens) / sizeof(tokens[0]))];
    }
    Result<Tgd> tgd = ParseTgd(*m.source, *m.target, soup);
    Result<DisjunctiveTgd> dep =
        ParseDisjunctiveTgd(*m.target, *m.source, soup);
    if (!tgd.ok()) {
      EXPECT_EQ(tgd.status().code(), StatusCode::kInvalidArgument) << soup;
    }
    if (!dep.ok()) {
      EXPECT_EQ(dep.status().code(), StatusCode::kInvalidArgument) << soup;
    }
  }
}

TEST(ParserFuzzTest, RandomInstanceTextNeverCrashes) {
  SchemaPtr schema = MakeSchema("P/2, Q/1");
  const char* tokens[] = {"P", "Q", "(", ")", ",", "a", "_N1", "?x", " "};
  Rng rng(777);
  for (int trial = 0; trial < 400; ++trial) {
    std::string soup;
    int len = rng.UniformInt(1, 12);
    for (int k = 0; k < len; ++k) {
      soup += tokens[rng.Uniform(sizeof(tokens) / sizeof(tokens[0]))];
    }
    Result<Instance> inst = ParseInstance(schema, soup);
    if (!inst.ok()) {
      // Malformed syntax or an unknown relation name, never a crash.
      EXPECT_TRUE(inst.status().code() == StatusCode::kInvalidArgument ||
                  inst.status().code() == StatusCode::kNotFound)
          << soup;
    }
  }
}

}  // namespace
}  // namespace qimap
