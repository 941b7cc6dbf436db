#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "relational/assignment.h"

// The flat Assignment against a std::map<Value, Value> oracle: randomized
// operation sequences that grow well past the inline capacity, checked
// after every step for contents, iteration order, ==, and <.

namespace qimap {
namespace {

using Oracle = std::map<Value, Value>;

// A small universe of keys of every kind, so operations both hit and
// miss, and sizes cross the inline capacity in both directions.
std::vector<Value> Universe() {
  std::vector<Value> out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(Value::MakeVariable("v" + std::to_string(i)));
    out.push_back(Value::MakeNull(static_cast<uint32_t>(i + 1)));
    out.push_back(Value::MakeConstant("c" + std::to_string(i)));
  }
  return out;
}

void ExpectSame(const Assignment& a, const Oracle& m) {
  ASSERT_EQ(a.size(), m.size());
  EXPECT_EQ(a.empty(), m.empty());
  auto it = m.begin();
  for (const auto& [k, v] : a) {
    ASSERT_EQ(k, it->first);
    ASSERT_EQ(v, it->second);
    ++it;
  }
}

TEST(AssignmentTest, RandomOperationsMatchStdMap) {
  const std::vector<Value> universe = Universe();
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&]() {
      return universe[rng() % universe.size()];
    };
    // Several live (assignment, oracle) pairs so copies, moves and
    // comparisons run between objects of different sizes.
    std::vector<Assignment> as(4);
    std::vector<Oracle> ms(4);
    for (int step = 0; step < 3000; ++step) {
      const size_t i = rng() % as.size();
      const size_t j = rng() % as.size();
      Assignment& a = as[i];
      Oracle& m = ms[i];
      const Value k = pick();
      const Value v = pick();
      switch (rng() % 11) {
        case 0:
        case 1:
        case 2: {  // emplace: never overwrites
          auto [it, inserted] = a.emplace(k, v);
          auto [mit, minserted] = m.emplace(k, v);
          EXPECT_EQ(inserted, minserted);
          EXPECT_EQ(it->first, mit->first);
          EXPECT_EQ(it->second, mit->second);
          break;
        }
        case 3: {  // insert(pair)
          auto [it, inserted] = a.insert({k, v});
          EXPECT_EQ(inserted, m.insert({k, v}).second);
          EXPECT_EQ(it->second, m.at(k));
          break;
        }
        case 4:  // erase by key
          EXPECT_EQ(a.erase(k), m.erase(k));
          break;
        case 5: {  // find / count / contains / at
          auto it = a.find(k);
          auto mit = m.find(k);
          ASSERT_EQ(it == a.end(), mit == m.end());
          EXPECT_EQ(a.count(k), m.count(k));
          EXPECT_EQ(a.contains(k), m.contains(k));
          if (mit != m.end()) {
            EXPECT_EQ(it->second, mit->second);
            EXPECT_EQ(a.at(k), m.at(k));
          } else {
            EXPECT_THROW(a.at(k), std::out_of_range);
          }
          break;
        }
        case 6:  // operator[]: default-inserts, then assigns
          if (rng() % 2 == 0) {
            EXPECT_EQ(a[k], m[k]);
          } else {
            a[k] = v;
            m[k] = v;
          }
          break;
        case 7:  // copy construct / copy assign (self included)
          if (rng() % 2 == 0) {
            Assignment copy(as[j]);
            as[i] = copy;
          } else {
            const Assignment& source = as[j];
            as[i] = source;
          }
          ms[i] = ms[j];
          break;
        case 8: {  // move construct / move assign; source left empty
          if (i == j) break;
          Assignment moved(std::move(as[j]));
          EXPECT_TRUE(as[j].empty());
          as[i] = std::move(moved);
          EXPECT_TRUE(moved.empty());
          ms[i] = std::move(ms[j]);
          ms[j].clear();
          break;
        }
        case 9:  // == and <
          EXPECT_EQ(as[i] == as[j], ms[i] == ms[j]);
          EXPECT_EQ(as[i] < as[j], ms[i] < ms[j]);
          EXPECT_EQ(as[j] < as[i], ms[j] < ms[i]);
          break;
        case 10:  // reserve never changes contents
          a.reserve(rng() % 32);
          break;
      }
      ExpectSame(as[i], ms[i]);
      ExpectSame(as[j], ms[j]);
    }
  }
}

// Bulk building: pairs appended in any order and sorted once equal the
// same pairs emplaced one by one, across the inline/heap boundary.
TEST(AssignmentTest, BulkBuildMatchesIncrementalInserts) {
  std::vector<Value> universe = Universe();
  std::mt19937 rng(7);
  for (size_t n = 0; n <= universe.size(); ++n) {
    std::shuffle(universe.begin(), universe.end(), rng);
    Assignment bulk;
    Oracle m;
    for (size_t i = 0; i < n; ++i) {
      const Value v = universe[(i * 7 + 3) % universe.size()];
      bulk.AppendUnsorted(universe[i], v);
      m.emplace(universe[i], v);
    }
    bulk.SortByKey();
    ExpectSame(bulk, m);
    Assignment incremental;
    for (const auto& [k, v] : m) incremental.emplace(k, v);
    EXPECT_EQ(bulk, incremental);
  }
}

// Like std::map's, the initializer-list constructor sorts its pairs and
// keeps the first of a repeated key.
TEST(AssignmentTest, InitializerListKeepsFirstOfRepeatedKey) {
  const Value x = Value::MakeVariable("x");
  const Value y = Value::MakeVariable("y");
  const Value a = Value::MakeConstant("a");
  const Value b = Value::MakeConstant("b");
  Assignment h = {{y, b}, {x, a}, {y, a}};
  Oracle m = {{y, b}, {x, a}, {y, a}};
  ExpectSame(h, m);
  EXPECT_EQ(h.at(y), b);
}

// Inline pairs move with the object: a vector of assignments that
// reallocates (and sorts, as the trigger batches do) keeps every binding.
TEST(AssignmentTest, SurvivesVectorReallocationAndSort) {
  std::vector<Assignment> batch;
  std::vector<Oracle> oracle;
  const std::vector<Value> universe = Universe();
  std::mt19937 rng(11);
  for (int t = 0; t < 200; ++t) {
    Assignment h;
    Oracle m;
    const size_t n = rng() % 12;  // both inline and spilled
    for (size_t i = 0; i < n; ++i) {
      const Value k = universe[rng() % universe.size()];
      const Value v = universe[rng() % universe.size()];
      h.emplace(k, v);
      m.emplace(k, v);
    }
    batch.push_back(std::move(h));
    oracle.push_back(std::move(m));
  }
  std::sort(batch.begin(), batch.end());
  std::sort(oracle.begin(), oracle.end());
  ASSERT_EQ(batch.size(), oracle.size());
  for (size_t t = 0; t < batch.size(); ++t) ExpectSame(batch[t], oracle[t]);
}

}  // namespace
}  // namespace qimap
