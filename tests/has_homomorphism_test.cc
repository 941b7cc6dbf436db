#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "relational/atom.h"
#include "relational/homomorphism.h"
#include "relational/instance.h"
#include "relational/schema.h"

// HasHomomorphism is FindHomomorphism(...).has_value() without building
// the match: the same search, stopped at the same candidate. Every
// combination of matcher path (compiled plan, full scan), frozen kinds,
// partial assignment and side conditions must give the same answer and
// leave the same hom.* / chase.index.* counter deltas, and the compiled
// plan must enumerate exactly the full scan's set of homomorphisms.

namespace qimap {
namespace {

Value Var(const char* name) { return Value::MakeVariable(name); }
Value Const(const char* name) { return Value::MakeConstant(name); }

// The search counters both entry points flush.
std::map<std::string, uint64_t> SearchCounters() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : obs::SnapshotMetrics().counters) {
    if (name.rfind("hom.", 0) == 0 || name.rfind("chase.index.", 0) == 0) {
      out[name] = value;
    }
  }
  return out;
}

std::map<std::string, uint64_t> Delta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    out[name] = value - (it != before.end() ? it->second : 0);
  }
  return out;
}

TEST(HasHomomorphismTest, AgreesWithFindOnEveryPathAndCondition) {
  SchemaPtr schema = MakeSchema("P/2, Q/1, R/3");
  Instance inst = MustParseInstance(
      schema,
      "P(a,b), P(b,a), P(a,a), P(_N1,b), P(b,_N2), P(c,c), "
      "Q(a), Q(b), Q(_N3), "
      "R(a,b,c), R(b,b,_N1), R(a,_N2,a)");
  const std::vector<Conjunction> bodies = {
      {{0, {Var("x"), Var("y")}}},
      {{0, {Var("x"), Var("y")}}, {1, {Var("y")}}},
      {{0, {Var("x"), Var("x")}}},
      {{0, {Const("a"), Var("y")}}, {0, {Var("y"), Var("z")}}},
      {{2, {Var("x"), Var("y"), Var("z")}}, {0, {Var("z"), Var("x")}}},
      {{0, {Var("x"), Var("y")}}, {0, {Var("y"), Var("x")}},
       {1, {Var("x")}}},
      {{1, {Const("d")}}},  // no match at all
      {{0, {Var("x"), Value::MakeNull(1)}}},
  };
  const std::vector<Assignment> partials = {
      {},
      {{Var("x"), Const("b")}},
      {{Var("y"), Value::MakeNull(2)}},
      {{Var("x"), Const("c")}, {Var("y"), Const("c")}},
  };
  struct Conditions {
    std::vector<Value> must_be_constant;
    std::vector<std::pair<Value, Value>> inequalities;
  };
  const std::vector<Conditions> conditions = {
      {},
      {{Var("y")}, {}},
      {{}, {{Var("x"), Var("y")}}},
      {{Var("x")}, {{Var("y"), Const("a")}, {Var("x"), Var("z")}}},
  };
  size_t found = 0;
  size_t missing = 0;
  size_t multiple = 0;
  for (size_t b = 0; b < bodies.size(); ++b) {
    for (size_t p = 0; p < partials.size(); ++p) {
      for (size_t c = 0; c < conditions.size(); ++c) {
        for (bool map_nulls : {true, false}) {
          std::vector<std::set<Assignment>> sets;
          for (bool use_index : {true, false}) {
            HomSearchOptions options;
            options.map_nulls = map_nulls;
            options.use_index = use_index;
            options.must_be_constant = conditions[c].must_be_constant;
            options.inequalities = conditions[c].inequalities;
            const std::string where =
                "body " + std::to_string(b) + " partial " +
                std::to_string(p) + " conditions " + std::to_string(c) +
                (use_index ? " compiled" : " full_scan") + " map_nulls " +
                std::to_string(map_nulls);

            auto before = SearchCounters();
            const bool expected =
                FindHomomorphism(bodies[b], inst, partials[p], options)
                    .has_value();
            auto middle = SearchCounters();
            const bool actual =
                HasHomomorphism(bodies[b], inst, partials[p], options);
            auto after = SearchCounters();

            EXPECT_EQ(actual, expected) << where;
            EXPECT_EQ(Delta(middle, after), Delta(before, middle)) << where;
            (expected ? found : missing) += 1;

            std::vector<Assignment> all =
                FindAllHomomorphisms(bodies[b], inst, partials[p], options);
            sets.emplace_back(all.begin(), all.end());
            EXPECT_EQ(sets.back().size(), all.size())
                << where << ": a homomorphism was enumerated twice";
            EXPECT_EQ(!all.empty(), expected) << where;
          }
          EXPECT_EQ(sets[0], sets[1])
              << "body " << b << " partial " << p << " conditions " << c
              << " map_nulls " << map_nulls
              << ": compiled plan and full scan enumerate different sets";
          if (sets[1].size() > 1) ++multiple;
        }
      }
    }
  }
  // The grid exercises both outcomes, and many-match enumerations.
  EXPECT_GT(found, 50u);
  EXPECT_GT(missing, 50u);
  EXPECT_GT(multiple, 50u);
}

// An instance homomorphism over many nulls: the existence check agrees
// with the materializing search in both directions.
TEST(HasHomomorphismTest, InstanceLevelCheckOverManyNulls) {
  SchemaPtr schema = MakeSchema("E/2");
  std::string chain;
  std::string cycle = "E(a,a)";
  for (uint32_t i = 1; i <= 40; ++i) {
    if (!chain.empty()) chain += ", ";
    chain += "E(_N" + std::to_string(i) + ",_N" + std::to_string(i + 1) +
             ")";
  }
  Instance path = MustParseInstance(schema, chain);
  Instance loop = MustParseInstance(schema, cycle);
  Conjunction body;
  for (const Fact& fact : path.Facts()) {
    body.push_back(Atom{fact.relation, fact.tuple});
  }
  for (bool use_index : {true, false}) {
    HomSearchOptions options;
    options.use_index = use_index;
    auto h = FindHomomorphism(body, loop, {}, options);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->size(), 41u);
    EXPECT_TRUE(HasHomomorphism(body, loop, {}, options));
  }
  EXPECT_TRUE(ExistsInstanceHomomorphism(path, loop));
  EXPECT_FALSE(ExistsInstanceHomomorphism(loop, path));
}

}  // namespace
}  // namespace qimap
