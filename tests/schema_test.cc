#include <gtest/gtest.h>

#include "relational/schema.h"

namespace qimap {
namespace {

TEST(SchemaTest, AddAndFind) {
  Schema schema;
  Result<RelationId> p = schema.AddRelation("P", 2);
  ASSERT_TRUE(p.ok());
  Result<RelationId> q = schema.AddRelation("Q", 1);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(schema.size(), 2u);
  EXPECT_EQ(*schema.FindRelation("P"), *p);
  EXPECT_EQ(schema.relation(*q).arity, 1u);
  EXPECT_TRUE(schema.Contains("Q"));
  EXPECT_FALSE(schema.Contains("R"));
}

TEST(SchemaTest, RejectsDuplicates) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("P", 2).ok());
  Result<RelationId> dup = schema.AddRelation("P", 3);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RejectsZeroArity) {
  Schema schema;
  EXPECT_FALSE(schema.AddRelation("P", 0).ok());
}

TEST(SchemaTest, RejectsEmptyName) {
  Schema schema;
  EXPECT_FALSE(schema.AddRelation("", 1).ok());
}

TEST(SchemaTest, FindMissingIsNotFound) {
  Schema schema;
  Result<RelationId> missing = schema.FindRelation("X");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ParseRoundTrip) {
  Result<Schema> schema = Schema::Parse("P/2, Q/1, R13/1");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->size(), 3u);
  EXPECT_EQ(schema->ToString(), "P/2, Q/1, R13/1");
}

TEST(SchemaTest, ParseErrors) {
  EXPECT_FALSE(Schema::Parse("P").ok());
  EXPECT_FALSE(Schema::Parse("P/0").ok());
  EXPECT_FALSE(Schema::Parse("P/x").ok());
  EXPECT_FALSE(Schema::Parse("/2").ok());
}

TEST(SchemaTest, ParseRejectsAritiesBeyondUint32) {
  // 4294967297 used to wrap to arity 1.
  EXPECT_FALSE(Schema::Parse("P/4294967297").ok());
  EXPECT_FALSE(Schema::Parse("P/4294967296").ok());
  EXPECT_FALSE(Schema::Parse("P/99999999999999999999").ok());
}

TEST(SchemaTest, ParseEmptyIsEmptySchema) {
  Result<Schema> schema = Schema::Parse("");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->size(), 0u);
}

TEST(SchemaTest, PrimedNamesSupported) {
  Result<Schema> schema = Schema::Parse("P'/2, T'/1");
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->Contains("P'"));
}

}  // namespace
}  // namespace qimap
