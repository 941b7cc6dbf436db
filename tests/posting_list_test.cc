#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/value.h"
#include "relational/instance.h"
#include "relational/schema.h"

// Posting-list invariants of the flat relation store: after any insert
// sequence (duplicates included), for every column of every relation the
// per-column posting lists (row chains) must exactly partition the row-id
// set, the incremental stats (`NumRows`, `ColumnDistinct`) must match
// brute-force recounts over the cells, and `RowsWith(col, value)` must
// agree with a linear scan — including when the same interned id appears
// in several columns, or as both a constant and a null (same numeric id,
// different kind), after the `(column, value)` table regrows, and in each
// of two copies that grow apart.

namespace qimap {
namespace {

// Brute-force oracle: row ids per (column, value), rebuilt from at().
using ColumnIndex = std::map<Value, std::vector<uint32_t>>;

ColumnIndex ScanColumn(const Instance& inst, RelationId r, uint32_t col) {
  ColumnIndex index;
  for (uint32_t row = 0; row < inst.NumRows(r); ++row) {
    index[inst.at(r, row, col)].push_back(row);
  }
  return index;
}

// The row ids a posting list yields, in iteration order.
std::vector<uint32_t> Rows(const Instance::PostingList& list) {
  std::vector<uint32_t> rows;
  for (uint32_t row : list) rows.push_back(row);
  return rows;
}

void CheckAllInvariants(const Instance& inst) {
  const Schema& schema = *inst.schema();
  for (RelationId r = 0; r < schema.size(); ++r) {
    const uint32_t rows = inst.NumRows(r);
    for (uint32_t col = 0; col < schema.relation(r).arity; ++col) {
      ColumnIndex oracle = ScanColumn(inst, r, col);
      SCOPED_TRACE(schema.relation(r).name + " column " +
                   std::to_string(col));

      // Stats match brute-force recounts.
      EXPECT_EQ(inst.ColumnDistinct(r, col), oracle.size());

      // RowsWith agrees with the linear scan for every present value...
      std::set<uint32_t> covered;
      for (const auto& [value, expect_rows] : oracle) {
        Instance::PostingList posting = inst.RowsWith(r, col, value);
        ASSERT_FALSE(posting.empty()) << "missing posting for " +
                                             value.ToString();
        EXPECT_EQ(posting.size(), expect_rows.size())
            << "posting size for " + value.ToString();
        EXPECT_EQ(Rows(posting), expect_rows) << "posting for " +
                                                     value.ToString();
        for (uint32_t row : posting) {
          EXPECT_TRUE(covered.insert(row).second)
              << "row " << row << " in two posting lists";
        }
      }
      // ...and the lists exactly partition the row set.
      EXPECT_EQ(covered.size(), rows);

      // Absent values (including kind-flipped twins of present ids) have
      // no posting list.
      for (const auto& [value, expect_rows] : oracle) {
        Value twin = value.IsNull() ? Value::MakeNull(value.id() + 1000000)
                                    : Value::MakeNull(value.id());
        if (oracle.find(twin) == oracle.end()) {
          EXPECT_TRUE(inst.RowsWith(r, col, twin).empty())
              << "phantom posting for " + twin.ToString();
        }
      }
    }
  }
}

TEST(PostingListTest, RandomizedInsertSequencesKeepEveryInvariant) {
  SchemaPtr schema = MakeSchema("A/1, B/2, C/3, D/4");
  // A small shared value pool forces repeated values per column (long
  // posting lists), duplicate full tuples (dedup), and the same interned
  // id in many columns at once.
  std::vector<Value> pool;
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    pool.push_back(Value::MakeConstant(name));
  }
  for (uint32_t label = 1; label <= 3; ++label) {
    pool.push_back(Value::MakeNull(label));
  }

  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 131071 + 9);
    Instance inst(schema);
    const size_t inserts = 40 + rng.Uniform(120);
    for (size_t i = 0; i < inserts; ++i) {
      RelationId r = static_cast<RelationId>(rng.Uniform(schema->size()));
      Tuple tuple;
      for (uint32_t c = 0; c < schema->relation(r).arity; ++c) {
        tuple.push_back(pool[rng.Uniform(pool.size())]);
      }
      ASSERT_TRUE(inst.AddFact(r, std::move(tuple)).ok());
      // Check mid-sequence occasionally so growth/rehash points are
      // covered, and always at the end.
      if (i % 37 == 0) CheckAllInvariants(inst);
    }
    CheckAllInvariants(inst);
  }
}

// The same numeric id must index separately per (column, kind): constant
// "x" (some interned id k) and null _N<k> are different values, and a
// value appearing in column 0 must not leak into column 1's postings.
TEST(PostingListTest, InternedIdCollisionsStaySeparate) {
  SchemaPtr schema = MakeSchema("P/2");
  Instance inst(schema);
  Value a = Value::MakeConstant("a");
  Value b = Value::MakeConstant("b");
  Value null_a = Value::MakeNull(a.id());  // same numeric id, null kind
  ASSERT_TRUE(inst.AddFact("P", {a, a}).ok());
  ASSERT_TRUE(inst.AddFact("P", {a, b}).ok());
  ASSERT_TRUE(inst.AddFact("P", {b, a}).ok());
  ASSERT_TRUE(inst.AddFact("P", {null_a, a}).ok());

  // Column 0: a -> {0,1}, b -> {2}, _N<a.id> -> {3}.
  EXPECT_EQ(Rows(inst.RowsWith(0, 0, a)), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Rows(inst.RowsWith(0, 0, null_a)), (std::vector<uint32_t>{3}));

  // Column 1: a -> {0,2,3}; the null with a's id never appears there.
  EXPECT_EQ(Rows(inst.RowsWith(0, 1, a)), (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_TRUE(inst.RowsWith(0, 1, null_a).empty());

  EXPECT_EQ(inst.ColumnDistinct(0, 0), 3u);
  EXPECT_EQ(inst.ColumnDistinct(0, 1), 2u);
  CheckAllInvariants(inst);
}

// Duplicate adds must not grow any posting list or stat.
TEST(PostingListTest, DuplicateInsertsLeaveIndexesUntouched) {
  SchemaPtr schema = MakeSchema("P/3");
  Instance inst(schema);
  Tuple t = {Value::MakeConstant("a"), Value::MakeConstant("b"),
             Value::MakeConstant("a")};
  ASSERT_TRUE(inst.AddFact("P", t).ok());
  uint64_t fingerprint = inst.Fingerprint();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(inst.AddFact("P", t).ok());
  }
  EXPECT_EQ(inst.NumRows(0), 1u);
  EXPECT_EQ(inst.Fingerprint(), fingerprint);
  EXPECT_EQ(Rows(inst.RowsWith(0, 2, Value::MakeConstant("a"))),
            (std::vector<uint32_t>{0}));
  CheckAllInvariants(inst);
}

// A copy shares no storage with its original: after each side adds
// facts of its own, both keep every invariant, and neither sees the
// other's rows (the chains of a value both sides extend stay apart).
TEST(PostingListTest, CopiesGrowApart) {
  SchemaPtr schema = MakeSchema("P/2, Q/1");
  Value a = Value::MakeConstant("a");
  Value b = Value::MakeConstant("b");
  Value c = Value::MakeConstant("c");
  Instance original(schema);
  ASSERT_TRUE(original.AddFact("P", {a, b}).ok());
  ASSERT_TRUE(original.AddFact("P", {b, a}).ok());
  ASSERT_TRUE(original.AddFact("Q", {a}).ok());

  Instance copy = original;
  ASSERT_TRUE(original.AddFact("P", {a, c}).ok());
  ASSERT_TRUE(original.AddFact("Q", {c}).ok());
  ASSERT_TRUE(copy.AddFact("P", {a, a}).ok());
  ASSERT_TRUE(copy.AddFact("P", {c, b}).ok());
  CheckAllInvariants(original);
  CheckAllInvariants(copy);

  // Row 2 of P is (a, c) in the original and (a, a) in the copy.
  EXPECT_EQ(Rows(original.RowsWith(0, 0, a)), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Rows(copy.RowsWith(0, 0, a)), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Rows(original.RowsWith(0, 1, c)), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(copy.RowsWith(0, 1, c).empty());
  EXPECT_EQ(Rows(copy.RowsWith(0, 1, a)), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(Rows(original.RowsWith(0, 1, a)), (std::vector<uint32_t>{1}));
  EXPECT_EQ(Rows(copy.RowsWith(0, 0, c)), (std::vector<uint32_t>{3}));
  EXPECT_TRUE(original.RowsWith(0, 0, c).empty());
  EXPECT_TRUE(copy.RowsWith(1, 0, c).empty());

  EXPECT_TRUE(original.ContainsFact(0, {a, c}));
  EXPECT_FALSE(copy.ContainsFact(0, {a, c}));
  EXPECT_TRUE(copy.ContainsFact(0, {c, b}));
  EXPECT_FALSE(original.ContainsFact(0, {c, b}));
  EXPECT_EQ(original.NumFacts(), 5u);
  EXPECT_EQ(copy.NumFacts(), 5u);
  EXPECT_NE(original.Fingerprint(), copy.Fingerprint());
}

// The `(column, value)` table starts at 16 entries and doubles before its
// load crosses 7/8, so 300 distinct values in column 1 (plus the one
// chain of column 0) regrow it five times, to 512 entries. Column 0
// carries the same value on every row, so that one chain is extended
// across every regrowth and must survive each rehash intact.
TEST(PostingListTest, OneChainSurvivesEveryTableRegrowth) {
  SchemaPtr schema = MakeSchema("P/2");
  Instance inst(schema);
  Value hub = Value::MakeConstant("hub");
  std::vector<uint32_t> hub_rows;
  for (uint32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        inst.AddFact("P", {hub, Value::MakeNull(i + 1)}).ok());
    hub_rows.push_back(i);
    ASSERT_EQ(Rows(inst.RowsWith(0, 0, hub)), hub_rows);
    EXPECT_EQ(inst.ColumnDistinct(0, 0), 1u);
    EXPECT_EQ(inst.ColumnDistinct(0, 1), i + 1);
    CheckAllInvariants(inst);
  }
}

}  // namespace
}  // namespace qimap
