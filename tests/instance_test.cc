#include <gtest/gtest.h>

#include "relational/instance.h"
#include "relational/schema.h"

namespace qimap {
namespace {

SchemaPtr TestSchema() { return MakeSchema("P/2, Q/1"); }

TEST(InstanceTest, AddAndContains) {
  Instance inst(TestSchema());
  ASSERT_TRUE(inst.AddFact("P", {Value::MakeConstant("a"),
                                 Value::MakeConstant("b")})
                  .ok());
  EXPECT_TRUE(inst.ContainsFact(0, {Value::MakeConstant("a"),
                                    Value::MakeConstant("b")}));
  EXPECT_FALSE(inst.ContainsFact(0, {Value::MakeConstant("b"),
                                     Value::MakeConstant("a")}));
  EXPECT_EQ(inst.NumFacts(), 1u);
}

TEST(InstanceTest, ArityMismatchRejected) {
  Instance inst(TestSchema());
  Status s = inst.AddFact("P", {Value::MakeConstant("a")});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(InstanceTest, UnknownRelationRejected) {
  Instance inst(TestSchema());
  EXPECT_FALSE(inst.AddFact("Z", {Value::MakeConstant("a")}).ok());
}

TEST(InstanceTest, DuplicateFactsCollapse) {
  Instance inst(TestSchema());
  Tuple t = {Value::MakeConstant("a"), Value::MakeConstant("b")};
  ASSERT_TRUE(inst.AddFact("P", t).ok());
  ASSERT_TRUE(inst.AddFact("P", t).ok());
  EXPECT_EQ(inst.NumFacts(), 1u);
}

TEST(InstanceTest, ActiveDomainSortedUnique) {
  Instance inst = MustParseInstance(TestSchema(), "P(a,b), Q(a)");
  std::vector<Value> domain = inst.ActiveDomain();
  ASSERT_EQ(domain.size(), 2u);
}

TEST(InstanceTest, GroundDetection) {
  Instance ground = MustParseInstance(TestSchema(), "P(a,b)");
  EXPECT_TRUE(ground.IsGround());
  Instance with_null = MustParseInstance(TestSchema(), "P(a,_N1)");
  EXPECT_FALSE(with_null.IsGround());
  Instance with_var = MustParseInstance(TestSchema(), "P(a,?x)");
  EXPECT_FALSE(with_var.IsGround());
}

TEST(InstanceTest, MaxNullLabel) {
  Instance inst = MustParseInstance(TestSchema(), "P(_N3,_N7), Q(a)");
  EXPECT_EQ(inst.MaxNullLabel(), 7u);
  Instance none = MustParseInstance(TestSchema(), "Q(a)");
  EXPECT_EQ(none.MaxNullLabel(), 0u);
}

TEST(InstanceTest, SubsetAndUnion) {
  SchemaPtr schema = TestSchema();
  Instance small = MustParseInstance(schema, "Q(a)");
  Instance big = MustParseInstance(schema, "P(a,b), Q(a)");
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  Instance merged = small;
  merged.UnionWith(big);
  EXPECT_TRUE(merged == big);
}

TEST(InstanceTest, EmptySubsetOfEverything) {
  SchemaPtr schema = TestSchema();
  Instance empty(schema);
  Instance other = MustParseInstance(schema, "Q(a)");
  EXPECT_TRUE(empty.IsSubsetOf(other));
  EXPECT_TRUE(empty.IsSubsetOf(empty));
  EXPECT_TRUE(empty.Empty());
}

TEST(InstanceTest, ToStringDeterministic) {
  SchemaPtr schema = TestSchema();
  Instance inst = MustParseInstance(schema, "Q(a), P(a,b)");
  EXPECT_EQ(inst.ToString(), "P(a,b), Q(a)");
}

TEST(InstanceTest, ParseRejectsMalformed) {
  SchemaPtr schema = TestSchema();
  EXPECT_FALSE(ParseInstance(schema, "P(a").ok());
  EXPECT_FALSE(ParseInstance(schema, "P(a,b) Q(a)").ok());
  EXPECT_FALSE(ParseInstance(schema, "Z(a)").ok());
  EXPECT_FALSE(ParseInstance(schema, "P(a)").ok());  // arity
}

TEST(InstanceTest, ParseNullTokens) {
  SchemaPtr schema = TestSchema();
  Instance inst = MustParseInstance(schema, "P(_1,_N2)");
  std::vector<Value> domain = inst.ActiveDomain();
  ASSERT_EQ(domain.size(), 2u);
  EXPECT_TRUE(domain[0].IsNull());
  EXPECT_TRUE(domain[1].IsNull());
}

TEST(InstanceTest, ParseRejectsOutOfRangeNullLabels) {
  SchemaPtr schema = MakeSchema("P/1");
  // Labels past uint32 used to truncate (_N4294967296 parsed as _N0) or
  // saturate (the 20-digit label parsed as _N4294967295).
  for (const char* text :
       {"P(_N4294967296)", "P(_N99999999999999999999)", "P(_N4294967295)",
        "P(_N2147483648)"}) {
    Result<Instance> inst = ParseInstance(schema, text);
    ASSERT_FALSE(inst.ok()) << text;
    EXPECT_EQ(inst.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(inst.status().message().find("null label out of range"),
              std::string::npos)
        << inst.status().ToString();
  }
}

TEST(InstanceTest, ParseAcceptsTheLargestNullLabel) {
  Instance inst = MustParseInstance(MakeSchema("P/1"), "P(_N2147483647)");
  ASSERT_EQ(inst.NumFacts(), 1u);
  Value null = inst.Facts()[0].tuple[0];
  EXPECT_TRUE(null.IsNull());
  EXPECT_EQ(null.id(), 2147483647u);
  EXPECT_EQ(inst.MaxNullLabel(), 2147483647u);
}

TEST(InstanceTest, FactsOrderedByRelationThenTuple) {
  SchemaPtr schema = TestSchema();
  Instance inst = MustParseInstance(schema, "Q(b), P(b,a), P(a,b)");
  std::vector<Fact> facts = inst.Facts();
  ASSERT_EQ(facts.size(), 3u);
  EXPECT_EQ(facts[0].relation, 0u);
  EXPECT_EQ(facts[2].relation, 1u);
  EXPECT_LT(facts[0].tuple, facts[1].tuple);
}

TEST(InstanceTest, OperatorLessGivesStrictWeakOrder) {
  SchemaPtr schema = TestSchema();
  Instance a = MustParseInstance(schema, "Q(a)");
  Instance b = MustParseInstance(schema, "Q(b)");
  EXPECT_TRUE((a < b) || (b < a));
  EXPECT_FALSE(a < a);
}

}  // namespace
}  // namespace qimap
