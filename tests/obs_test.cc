#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/run_record.h"
#include "obs/trace.h"

namespace qimap {
namespace {

TEST(MetricsTest, RegistrationIsIdempotentByName) {
  obs::MetricId a = obs::RegisterCounter("test.idempotent");
  obs::MetricId b = obs::RegisterCounter("test.idempotent");
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, CounterSumsAcrossConcurrentThreads) {
  obs::ResetMetrics();
  obs::MetricId id = obs::RegisterCounter("test.concurrent");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([id] {
      for (int i = 0; i < kIncrements; ++i) obs::CounterAdd(id);
    });
  }
  for (std::thread& t : threads) t.join();
  obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
  EXPECT_EQ(snapshot.counters.at("test.concurrent"),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

// Every thread that touches a metric gets a shard, and a client may run
// pipelines on short-lived threads. Exited threads must hand their
// shards back for reuse: many generations of short-lived threads allocate
// only as many shards as run at once, the pooled shards keep their
// counts, and a reset zeroes them too.
TEST(ParallelMetricsShardTest, ShortLivedThreadsReuseBoundedShards) {
  obs::ResetMetrics();
  obs::MetricId id = obs::RegisterCounter("test.short_lived");
  obs::CounterAdd(id);  // this thread keeps its shard throughout
  const size_t before = obs::MetricsShardCount();
  constexpr int kGenerations = 200;
  constexpr int kWidth = 4;
  constexpr int kIncrements = 50;
  for (int g = 0; g < kGenerations; ++g) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kWidth; ++t) {
      threads.emplace_back([id] {
        for (int i = 0; i < kIncrements; ++i) obs::CounterAdd(id);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_LE(obs::MetricsShardCount(), before + kWidth);
  EXPECT_EQ(obs::SnapshotMetrics().counters.at("test.short_lived"),
            1u + static_cast<uint64_t>(kGenerations) * kWidth * kIncrements);
  obs::ResetMetrics();
  EXPECT_EQ(obs::SnapshotMetrics().counters.at("test.short_lived"), 0u);
}

// Stress for the thread-local shard design: heavy concurrent increments
// on shared and per-thread metrics while another thread keeps forcing
// merge-on-snapshot. Totals must come out exact — a lost update anywhere
// in shard registration, relaxed increments, or the merge would show.
TEST(MetricsTest, StressShardedCountersSurviveConcurrentSnapshots) {
  obs::ResetMetrics();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  obs::MetricId shared = obs::RegisterCounter("test.stress_shared");
  std::atomic<bool> stop{false};
  std::thread snapshotter([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
      (void)snapshot;
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([shared, t] {
      obs::MetricId mine =
          obs::RegisterCounter("test.stress_t" + std::to_string(t));
      for (int i = 0; i < kIncrements; ++i) {
        obs::CounterAdd(shared);
        obs::CounterAdd(mine, 2);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
  EXPECT_EQ(snapshot.counters.at("test.stress_shared"),
            static_cast<uint64_t>(kThreads) * kIncrements);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snapshot.counters.at("test.stress_t" + std::to_string(t)),
              static_cast<uint64_t>(kIncrements) * 2);
  }
}

TEST(MetricsTest, CounterAddWithDelta) {
  obs::ResetMetrics();
  obs::MetricId id = obs::RegisterCounter("test.delta");
  obs::CounterAdd(id, 5);
  obs::CounterAdd(id, 7);
  EXPECT_EQ(obs::SnapshotMetrics().counters.at("test.delta"), 12u);
}

TEST(MetricsTest, ResetClearsEverything) {
  obs::MetricId counter = obs::RegisterCounter("test.reset_counter");
  obs::CounterAdd(counter, 9);
  obs::ResetMetrics();
  obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
  EXPECT_EQ(snapshot.counters.at("test.reset_counter"), 0u);
}

TEST(MetricsTest, SnapshotJsonParses) {
  obs::ResetMetrics();
  obs::CounterAdd(obs::RegisterCounter("test.json_counter"), 3);
  // The run record renders the snapshot as its counters.
  Result<obs::JsonValue> doc = obs::ParseJson(
      obs::CollectRunRecord("test", nullptr, 0, 0.0).ToJson(false));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::JsonValue* value = counters->Find("test.json_counter");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->number_value, 3.0);
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Trace::Disable();
    obs::Trace::Clear();
  }
  void TearDown() override {
    obs::Trace::Disable();
    obs::Trace::Clear();
  }
};

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  { QIMAP_TRACE_SPAN("test/should_not_appear"); }
  EXPECT_EQ(obs::Trace::NumEvents(), 0u);
}

TEST_F(TraceTest, NestedSpansAreContained) {
  obs::Trace::Enable();
  {
    QIMAP_TRACE_SPAN("test/outer");
    { QIMAP_TRACE_SPAN("test/inner"); }
  }
  obs::Trace::Disable();
  std::vector<obs::TraceEvent> events = obs::Trace::Events();
  ASSERT_EQ(events.size(), 2u);
  // Spans complete innermost-first.
  EXPECT_EQ(events[0].name, "test/inner");
  EXPECT_EQ(events[1].name, "test/outer");
  // The inner interval is contained in the outer one.
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
}

TEST_F(TraceTest, ClearDropsBufferedEvents) {
  obs::Trace::Enable();
  { QIMAP_TRACE_SPAN("test/span"); }
  EXPECT_EQ(obs::Trace::NumEvents(), 1u);
  obs::Trace::Clear();
  EXPECT_EQ(obs::Trace::NumEvents(), 0u);
}

TEST_F(TraceTest, WriteJsonRoundTripsAsChromeTraceFormat) {
  obs::Trace::Enable();
  {
    QIMAP_TRACE_SPAN("test/write_outer");
    { QIMAP_TRACE_SPAN("test/write_inner"); }
  }
  obs::Trace::Disable();
  std::string path = ::testing::TempDir() + "/qimap_trace_test.json";
  ASSERT_TRUE(obs::Trace::WriteJson(path));
  Result<obs::JsonValue> doc = obs::ParseJsonFile(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->IsObject());
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  ASSERT_EQ(events->items.size(), 2u);
  for (const obs::JsonValue& event : events->items) {
    ASSERT_TRUE(event.IsObject());
    const obs::JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string_value, "X");  // complete events
    EXPECT_NE(event.Find("name"), nullptr);
    ASSERT_NE(event.Find("ts"), nullptr);
    EXPECT_TRUE(event.Find("ts")->IsNumber());
    ASSERT_NE(event.Find("dur"), nullptr);
    EXPECT_TRUE(event.Find("dur")->IsNumber());
    ASSERT_NE(event.Find("pid"), nullptr);
    ASSERT_NE(event.Find("tid"), nullptr);
  }
}

TEST(JsonTest, ParsesScalarsArraysAndObjects) {
  Result<obs::JsonValue> doc = obs::ParseJson(
      R"({"a": [1, 2.5, -3], "b": {"c": "x\"y"}, "d": true, "e": null})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[1].number_value, 2.5);
  EXPECT_EQ(a->items[2].number_value, -3.0);
  const obs::JsonValue* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->Find("c"), nullptr);
  EXPECT_EQ(b->Find("c")->string_value, "x\"y");
  EXPECT_EQ(doc->Find("d")->type, obs::JsonValue::Type::kBool);
  EXPECT_TRUE(doc->Find("d")->bool_value);
  EXPECT_EQ(doc->Find("e")->type, obs::JsonValue::Type::kNull);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(obs::ParseJson("").ok());
  EXPECT_FALSE(obs::ParseJson("{").ok());
  EXPECT_FALSE(obs::ParseJson("[1,]").ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(obs::ParseJson("{'single': 1}").ok());
  EXPECT_FALSE(obs::ParseJsonFile("/nonexistent/qimap.json").ok());
}

TEST(JsonTest, DecodesUnicodeEscapesToUtf8) {
  // BMP code points: ASCII, 2-byte, and 3-byte UTF-8 encodings.
  Result<obs::JsonValue> bmp =
      obs::ParseJson(R"("A\u00e9\u20AC")");
  ASSERT_TRUE(bmp.ok()) << bmp.status().ToString();
  EXPECT_EQ(bmp->string_value, "A\xC3\xA9\xE2\x82\xAC");  // A, e-acute, euro
  // A surrogate pair combines into one 4-byte code point (U+1D11E,
  // musical G clef).
  Result<obs::JsonValue> pair = obs::ParseJson(R"("\uD834\uDD1E")");
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_EQ(pair->string_value, "\xF0\x9D\x84\x9E");
  // Mixed with ordinary characters and other escapes.
  Result<obs::JsonValue> mixed = obs::ParseJson(R"("xAy\nz")");
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed->string_value, "xAy\nz");
}

TEST(JsonTest, RejectsMalformedUnicodeEscapes) {
  EXPECT_FALSE(obs::ParseJson(R"("\u12")").ok());      // too few digits
  EXPECT_FALSE(obs::ParseJson(R"("\uZZZZ")").ok());    // not hex
  EXPECT_FALSE(obs::ParseJson(R"("\u12g4")").ok());    // mixed junk
  EXPECT_FALSE(obs::ParseJson(R"("\ud834")").ok());    // lone high
  EXPECT_FALSE(obs::ParseJson(R"("\ud834x")").ok());   // high then text
  EXPECT_FALSE(obs::ParseJson(R"("\ud834A")").ok());  // high + non-low
  EXPECT_FALSE(obs::ParseJson(R"("\udd1e")").ok());    // lone low
}

// The one string escaper: every byte below 0x20, `"` and `\` survive a
// round trip through AppendJsonString and ParseJson unchanged, and the
// rendering holds no raw control character (so no JSONL line splits).
TEST(JsonTest, EscaperRoundTripsControlCharactersQuotesAndBackslashes) {
  std::string raw;
  for (int c = 0x01; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  raw += "\"\\ plain \xc3\xa9";
  std::string rendered;
  obs::AppendJsonString(&rendered, raw);
  for (char c : rendered) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << rendered;
  }
  EXPECT_NE(rendered.find("\\n"), std::string::npos);
  EXPECT_NE(rendered.find("\\t"), std::string::npos);
  EXPECT_NE(rendered.find("\\r"), std::string::npos);
  EXPECT_NE(rendered.find("\\u0001"), std::string::npos);
  Result<obs::JsonValue> parsed = obs::ParseJson(rendered);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->IsString());
  EXPECT_EQ(parsed->string_value, raw);
  // A raw control character inside a string is malformed JSON.
  EXPECT_FALSE(obs::ParseJson("\"a\nb\"").ok());
}

TEST(JsonTest, RejectsNonStrictNumbers) {
  // strtod accepts all of these; RFC 8259 does not.
  EXPECT_FALSE(obs::ParseJson("1.").ok());
  EXPECT_FALSE(obs::ParseJson("01").ok());
  EXPECT_FALSE(obs::ParseJson("-01").ok());
  EXPECT_FALSE(obs::ParseJson("1e").ok());
  EXPECT_FALSE(obs::ParseJson("1e+").ok());
  EXPECT_FALSE(obs::ParseJson("1.2.3").ok());
  EXPECT_FALSE(obs::ParseJson("1e2e3").ok());
  EXPECT_FALSE(obs::ParseJson("--1").ok());
  EXPECT_FALSE(obs::ParseJson("-").ok());
  EXPECT_FALSE(obs::ParseJson("+1").ok());
  // The strict grammar still admits every shape the telemetry emits.
  EXPECT_TRUE(obs::ParseJson("0").ok());
  EXPECT_TRUE(obs::ParseJson("-0.5").ok());
  EXPECT_TRUE(obs::ParseJson("10.25").ok());
  EXPECT_TRUE(obs::ParseJson("1e9").ok());
  EXPECT_TRUE(obs::ParseJson("6.5e-7").ok());
  EXPECT_TRUE(obs::ParseJson("1E+2").ok());
}

TEST(LogTest, LevelGatingIsMonotone) {
  obs::LogLevel before = obs::CurrentLogLevel();
  obs::SetLogLevel(obs::LogLevel::kInfo);
  EXPECT_TRUE(obs::LogEnabled(obs::LogLevel::kError));
  EXPECT_TRUE(obs::LogEnabled(obs::LogLevel::kInfo));
  EXPECT_FALSE(obs::LogEnabled(obs::LogLevel::kDebug));
  obs::SetLogLevel(before);
}

}  // namespace
}  // namespace qimap
