// Tests for the benchmark's own statistics: the percentile rule,
// best-of-passes selection, self-time subtraction and the pass-identity
// detector.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "span_trace.h"
#include "stats.h"

namespace qimap::perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> values;
  for (size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(TailPercentileTest, NearestRankOnUnsortedInput) {
  EXPECT_EQ(TailPercentile(OneTo(100), 0.5), 50.0);
  EXPECT_EQ(TailPercentile(OneTo(100), 0.9), 90.0);
  EXPECT_EQ(TailPercentile(OneTo(101), 0.9), 91.0);  // rank ceil(90.9)
}

TEST(TailPercentileTest, NeedsTenSamplesBeyond) {
  // 100 samples leave exactly 10 above p90; 99 leave only 9.
  EXPECT_TRUE(TailPercentile(OneTo(100), 0.9).has_value());
  EXPECT_FALSE(TailPercentile(OneTo(99), 0.9).has_value());
  EXPECT_TRUE(TailPercentile(OneTo(99), 0.5).has_value());
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
  EXPECT_FALSE(TailPercentile(OneTo(1000), 1.0).has_value());
}

TEST(SummarizeTest, RejectsCorporaTooSmallForP90) {
  EXPECT_FALSE(Summarize(OneTo(99)).has_value());
  std::optional<LatencySummary> s = Summarize(std::vector<double>(100, 2.0));
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(s->ops_per_s, 500.0);  // 100 ops in 200 ms
  EXPECT_DOUBLE_EQ(s->p50_ms, 2.0);
  EXPECT_DOUBLE_EQ(s->p90_ms, 2.0);
}

TEST(SummarizeTest, RejectsMissingLatency) {
  std::vector<double> best(100, 1.0);
  best[7] = -1;  // input 7 never ran
  EXPECT_FALSE(Summarize(best).has_value());
}

TEST(BestOfPassesTest, KeepsEachInputsFastestPass) {
  BestOfPasses best(3);
  EXPECT_TRUE(best.Record(0, 5.0));   // pass 0
  EXPECT_TRUE(best.Record(1, 3.0));
  EXPECT_TRUE(best.Record(0, 4.0));   // pass 1
  EXPECT_FALSE(best.Record(1, 9.0));  // a slow pass keeps the best
  EXPECT_FALSE(best.Record(0, 4.5));  // pass 2
  EXPECT_EQ(best.best_ms(0), 4.0);
  EXPECT_EQ(best.best_ms(1), 3.0);
  EXPECT_EQ(best.best_ms(2), -1.0);   // never ran
  EXPECT_FALSE(Summarize(best.best_ms()).has_value());
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

Span At(const char* name, int64_t start_ms, int64_t end_ms, int32_t parent) {
  Span span;
  span.name = name;
  span.start_ns = start_ms * 1000000;
  span.end_ns = end_ms * 1000000;
  span.parent = parent;
  return span;
}

TEST(SelfTimesTest, SubtractsDirectChildrenOnly) {
  std::vector<Span> spans = {
      At("op", 0, 10, -1),     // 0
      At("a", 1, 3, 0),        // 1
      At("b", 5, 9, 0),        // 2
      At("a", 6, 7, 2),        // 3: nested under b
  };
  std::map<std::string, double> self = SelfTimesMs(spans, 0, spans.size());
  EXPECT_DOUBLE_EQ(self["op"], 4.0);  // 10 - 2 - 4
  EXPECT_DOUBLE_EQ(self["b"], 3.0);   // 4 - 1
  EXPECT_DOUBLE_EQ(self["a"], 3.0);   // 2 + 1, summed by name
  double total = 0;
  for (const auto& [name, ms] : self) total += ms;
  EXPECT_DOUBLE_EQ(total, 10.0);  // self times add up to the root
}

TEST(SelfTimesTest, RangeSelectsOneOpAndClipsOverhang) {
  std::vector<Span> spans = {
      At("op", 0, 4, -1),
      At("x", 1, 2, 0),
      At("op", 10, 14, -1),   // second op starts here
      At("x", 12, 16, 2),     // overhangs its parent by 2 ms
  };
  std::map<std::string, double> self = SelfTimesMs(spans, 2, 4);
  EXPECT_DOUBLE_EQ(self["op"], 2.0);  // only the covered 2 ms subtracted
  EXPECT_DOUBLE_EQ(self["x"], 4.0);
}

TEST(SpanLogTest, ScopedSpansNestAndCarryTheOp) {
  SpanLog log;
  log.set_op(7);
  {
    ScopedSpan op(&log, "op");
    ScopedSpan child(&log, "child");
  }
  ScopedSpan ignored(nullptr, "not recorded");
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].op, 7u);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
}

TEST(CounterDeltaTest, KeepsOnlyMovedCounters) {
  CounterMap before = {{"a", 5}, {"b", 2}};
  CounterMap after = {{"a", 5}, {"b", 7}, {"c", 1}};
  EXPECT_EQ(CounterDelta(after, before), (CounterMap{{"b", 5}, {"c", 1}}));
}

// A toy pipeline op with a memo the harness does not know about: the
// first call computes (bumping `work.steps`), repeats are served from the
// memo. `clear` models the harness clearing every cache it knows.
class PlantedCacheOp {
 public:
  CounterMap Run(int key, bool clear) {
    if (clear) memo_.clear();
    CounterMap delta;
    if (memo_.count(key) == 0) {
      memo_[key] = key * key;
      delta["work.steps"] = 10 + key;
      delta["memo.misses"] = 1;
    } else {
      delta["memo.hits"] = 1;
    }
    return delta;
  }

 private:
  std::map<int, int> memo_;
};

TEST(PassIdentityTest, QuietWhenEveryPassDoesTheSameWork) {
  PlantedCacheOp op;
  PassIdentity identity(3);
  for (size_t pass = 0; pass < 4; ++pass) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(identity.Observe(i, pass, op.Run(i, /*clear=*/true)));
    }
  }
  EXPECT_TRUE(identity.ok());
  ASSERT_NE(identity.reference(2), nullptr);
  EXPECT_EQ(identity.reference(2)->at("work.steps"), 12u);
}

TEST(PassIdentityTest, FiresOnAPlantedCrossPassCache) {
  PlantedCacheOp op;
  PassIdentity identity(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(identity.Observe(i, 0, op.Run(i, /*clear=*/false)));
  }
  // Pass 1 times memo hits: every input's delta differs from pass 0's.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(identity.Observe(i, 1, op.Run(i, /*clear=*/false)));
  }
  EXPECT_FALSE(identity.ok());
  ASSERT_EQ(identity.mismatches().size(), 3u);
  const std::string& first = identity.mismatches()[0];
  EXPECT_NE(first.find("input 0 pass 1"), std::string::npos) << first;
  EXPECT_NE(first.find("work.steps 10 -> 0"), std::string::npos) << first;
  EXPECT_NE(first.find("memo.hits 0 -> 1"), std::string::npos) << first;
}

}  // namespace
}  // namespace qimap::perfbench
