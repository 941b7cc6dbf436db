// MinGen against the generator sets of the enumerator it replaced.
//
// tests/golden/mingen_generators.txt holds, for the Sigma* members of
// the mappings below, the minimal generators that the generate-and-chase
// enumerator (level-order candidate conjunctions, one chase per
// candidate) returned at commit a779b9c, the last commit that had it.
// It covers every member except the `wide/` ones that exceeded a
// 20,000-candidate budget there. The file is the independent reference
// for MinGen's backward resolution: it must never be regenerated from
// the current MinGen.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/mingen.h"
#include "core/quasi_inverse.h"
#include "core/sigma_star.h"
#include "dependency/parser.h"
#include "workload/paper_catalog.h"
#include "workload/scenario_gen.h"

namespace qimap {
namespace {

// The splitmix64 input seed of perfbench's corpora, so the `invert/`
// members are exactly that workload's seed-7 mappings.
uint64_t CaseSeed(uint64_t seed, uint64_t input) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + input + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct GoldenMapping {
  std::string key;
  SchemaMapping mapping;
};

// Every mapping the golden file covers, keyed as its lines are.
std::vector<GoldenMapping> GoldenMappings() {
  std::vector<GoldenMapping> out;
  for (auto& [name, m] : catalog::AllMappings()) {
    out.push_back({"catalog/" + name, std::move(m)});
  }
  // A two-atom join over source schemas with relations no tgd mentions,
  // and a LAV mapping with a three-atom Sigma.
  const char* kJoin = "P(x,y) & R(y,z) -> Q(x,z) & U(z,x)";
  out.push_back({"join/P+R", MustParseMapping("P/2, R/2", "Q/2, U/2", kJoin)});
  out.push_back(
      {"join/P+R+S", MustParseMapping("P/2, R/2, S/2", "Q/2, U/2", kJoin)});
  out.push_back({"join/P+R+S+T", MustParseMapping("P/2, R/2, S/2, T/2",
                                                  "Q/2, U/2", kJoin)});
  out.push_back({"lav", MustParseMapping(
                            "P/3, R/3, S/3", "Q/3, U/3",
                            "P(x,y,w) -> exists z: Q(x,z,w) & U(z,y,w); "
                            "R(x,y,w) -> U(x,y,w); S(x,y,w) -> Q(x,y,y)")});
  constexpr ScenarioFamily kFamilies[] = {
      ScenarioFamily::kLav, ScenarioFamily::kGav, ScenarioFamily::kFull,
      ScenarioFamily::kMixed};
  constexpr BodyTopology kTopologies[] = {
      BodyTopology::kChain, BodyTopology::kStar, BodyTopology::kCycle};
  // perfbench's `invert` shapes: one tgd, arity <= 2, body x fan-out <= 2.
  constexpr std::pair<size_t, size_t> kInvertShapes[] = {
      {1, 1}, {1, 2}, {2, 1}};
  for (size_t i = 0; i < 1800; ++i) {
    ScenarioConfig config;
    config.family = kFamilies[i % 4];
    config.topology = kTopologies[(i / 4) % 3];
    config.body_atoms = kInvertShapes[(i / 12) % 3].first;
    config.fan_out = kInvertShapes[(i / 12) % 3].second;
    config.max_arity = 2;
    config.num_tgds = 1;
    config.max_existential_vars = 1;
    out.push_back({"invert/" + std::to_string(i),
                   GenerateScenario(config, CaseSeed(7, i), 0).mapping});
  }
  // Wider shapes: arity 3, up to two existentials and two tgds,
  // body x fan-out <= 4.
  constexpr std::pair<size_t, size_t> kWideShapes[] = {
      {1, 1}, {1, 2}, {1, 3}, {1, 4}, {2, 1}, {2, 2}, {3, 1}, {4, 1}};
  for (size_t i = 0; i < 960; ++i) {
    ScenarioConfig config;
    config.family = kFamilies[i % 4];
    config.topology = kTopologies[(i / 4) % 3];
    config.body_atoms = kWideShapes[(i / 12) % 8].first;
    config.fan_out = kWideShapes[(i / 12) % 8].second;
    config.max_arity = 3;
    config.num_tgds = 1 + (i / 96) % 2;
    config.max_existential_vars = 2;
    out.push_back({"wide/" + std::to_string(i),
                   GenerateScenario(config, CaseSeed(7, 1800 + i), 0).mapping});
  }
  return out;
}

// Parses one rendered generator, "P(x,#z1) & R(#z1,z)", over `schema`.
Conjunction ParseGenerator(const std::string& text, const Schema& schema) {
  Conjunction out;
  if (text == "true") return out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t open = text.find('(', pos);
    size_t close = open == std::string::npos ? open : text.find(')', open);
    if (close == std::string::npos) {
      ADD_FAILURE() << "malformed generator: " << text;
      return out;
    }
    Result<RelationId> relation =
        schema.FindRelation(text.substr(pos, open - pos));
    EXPECT_TRUE(relation.ok()) << text;
    Atom atom{relation.ok() ? *relation : 0, {}};
    size_t arg = open + 1;
    while (arg < close) {
      size_t end = std::min(text.find(',', arg), close);
      atom.args.push_back(Value::MakeVariable(text.substr(arg, end - arg)));
      arg = end + 1;
    }
    out.push_back(std::move(atom));
    pos = text.find(" & ", close);
    pos = pos == std::string::npos ? text.size() : pos + 3;
  }
  return out;
}

// Equal as sets of conjunctions up to renaming of the non-x variables.
bool SameUpToRenaming(const std::vector<Conjunction>& a,
                      const std::vector<Conjunction>& b,
                      const std::vector<Value>& x) {
  if (a.size() != b.size()) return false;
  auto covered = [&x](const std::vector<Conjunction>& from,
                      const std::vector<Conjunction>& to) {
    for (const Conjunction& f : from) {
      bool twin = false;
      for (const Conjunction& t : to) {
        if (f.size() == t.size() && IsSubConjunctionUpToRenaming(f, t, x) &&
            IsSubConjunctionUpToRenaming(t, f, x)) {
          twin = true;
          break;
        }
      }
      if (!twin) return false;
    }
    return true;
  };
  return covered(a, b) && covered(b, a);
}

std::string Render(const std::vector<Conjunction>& generators,
                   const Schema& schema) {
  std::string out;
  for (const Conjunction& g : generators) {
    if (!out.empty()) out += " | ";
    out += ConjunctionToString(g, schema);
  }
  return out;
}

TEST(MinGenGoldenTest, MatchesTheEnumeratorsGenerators) {
  std::map<std::string, SchemaMapping> mappings;
  for (GoldenMapping& g : GoldenMappings()) {
    mappings.emplace(g.key, std::move(g.mapping));
  }
  std::ifstream in(std::string(QIMAP_TESTS_DIR) +
                   "/golden/mingen_generators.txt");
  ASSERT_TRUE(in.good());
  std::map<std::string, size_t> lines_per_corpus;
  std::string line;
  std::string cached_key;
  std::vector<Tgd> sigma_star;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.find(' ');
    size_t colon = line.find(": ", space);
    ASSERT_NE(colon, std::string::npos) << line;
    std::string key = line.substr(0, space);
    size_t member = std::stoul(line.substr(space + 1, colon - space - 1));
    SCOPED_TRACE(key + " member " + std::to_string(member));
    auto it = mappings.find(key);
    ASSERT_NE(it, mappings.end());
    const SchemaMapping& m = it->second;
    if (key != cached_key) {
      sigma_star = SigmaStar(m);
      cached_key = key;
    }
    ASSERT_LT(member, sigma_star.size());
    const Tgd& sigma = sigma_star[member];
    std::vector<Value> x = sigma.FrontierVariables();

    std::vector<Conjunction> expected;
    std::string rest = line.substr(colon + 2);
    for (size_t pos = 0; pos <= rest.size();) {
      size_t bar = rest.find(" | ", pos);
      if (bar == std::string::npos) bar = rest.size();
      expected.push_back(ParseGenerator(rest.substr(pos, bar - pos),
                                        *m.source));
      pos = bar + 3;
    }
    Result<std::vector<Conjunction>> actual = MinGen(m, sigma.rhs, x);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_TRUE(SameUpToRenaming(*actual, expected, x))
        << "MinGen:  " << Render(*actual, *m.source)
        << "\ngolden: " << rest;
    EXPECT_TRUE(
        SameUpToRenaming(PruneSubsumedConjunctions(*actual, x, m.source),
                         PruneSubsumedConjunctions(expected, x, m.source), x))
        << "after pruning; golden: " << rest;
    ++lines_per_corpus[key.substr(0, key.find('/'))];
  }
  EXPECT_EQ(lines_per_corpus["catalog"], 41u);
  EXPECT_EQ(lines_per_corpus["join"] + lines_per_corpus["lav"], 18u);
  EXPECT_EQ(lines_per_corpus["invert"], 1952u);
  EXPECT_GE(lines_per_corpus["wide"], 1000u);
}

// Definition 4.2 directly: every returned conjunction passes the chase
// oracle, and none does with one atom removed. The generator property is
// monotone, so that one-atom check proves minimality.
TEST(MinGenGoldenTest, GeneratedMembersAreMinimalGenerators) {
  size_t members = 0;
  std::vector<GoldenMapping> all = GoldenMappings();
  for (size_t k = 0; k < all.size(); ++k) {
    // Every hand-written mapping and every fifth generated one.
    bool generated = all[k].key.rfind("invert/", 0) == 0 ||
                     all[k].key.rfind("wide/", 0) == 0;
    if (generated && k % 5 != 0) continue;
    const SchemaMapping& m = all[k].mapping;
    for (const Tgd& sigma : SigmaStar(m)) {
      std::vector<Value> x = sigma.FrontierVariables();
      MinGenOptions options;
      options.max_candidates = 20000;
      Result<std::vector<Conjunction>> gens =
          MinGen(m, sigma.rhs, x, options);
      if (!gens.ok()) continue;
      SCOPED_TRACE(all[k].key + ": " + Render(*gens, *m.source));
      for (const Conjunction& g : *gens) {
        Result<bool> is_generator = IsGenerator(m, g, sigma.rhs, x);
        ASSERT_TRUE(is_generator.ok());
        EXPECT_TRUE(*is_generator) << ConjunctionToString(g, *m.source);
        for (size_t drop = 0; drop < g.size(); ++drop) {
          Conjunction smaller = g;
          smaller.erase(smaller.begin() + static_cast<std::ptrdiff_t>(drop));
          Result<bool> still = IsGenerator(m, smaller, sigma.rhs, x);
          ASSERT_TRUE(still.ok());
          EXPECT_FALSE(*still) << ConjunctionToString(smaller, *m.source);
        }
      }
      if (generated) ++members;
    }
  }
  EXPECT_GE(members, 200u);
}

}  // namespace
}  // namespace qimap
