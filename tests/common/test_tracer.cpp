#include "common/tracer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"

namespace vc {
namespace {

TEST(Tracer, RecordsAllThreePhases) {
  Tracer tracer{8};
  tracer.span("span", SimTime{10}, SimTime{25}, 3.0);
  tracer.instant("instant", SimTime{30}, 7.0);
  tracer.counter("counter", SimTime{40}, 11.0);
  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_EQ(tracer.spans_recorded(), 1u);
  EXPECT_EQ(tracer.instants_recorded(), 1u);
  EXPECT_EQ(tracer.counters_recorded(), 1u);

  std::vector<Tracer::Record> records;
  tracer.for_each([&records](const Tracer::Record& r) { records.push_back(r); });
  ASSERT_EQ(records.size(), 3u);
  EXPECT_STREQ(records[0].name, "span");
  EXPECT_EQ(records[0].ts_us, 10);
  EXPECT_EQ(records[0].dur_us, 15);
  EXPECT_FLOAT_EQ(records[0].value, 3.0f);
  EXPECT_EQ(records[0].phase, Tracer::Phase::kSpan);
  EXPECT_EQ(records[1].phase, Tracer::Phase::kInstant);
  EXPECT_EQ(records[2].phase, Tracer::Phase::kCounter);
}

TEST(Tracer, RingWrapKeepsLatestWindowAndCountsDrops) {
  Tracer tracer{4};
  for (int i = 0; i < 10; ++i) {
    tracer.instant("e", SimTime{i});
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Flight-recorder semantics: the *latest* four records survive, in order.
  std::vector<std::int64_t> ts;
  tracer.for_each([&ts](const Tracer::Record& r) { ts.push_back(r.ts_us); });
  EXPECT_EQ(ts, (std::vector<std::int64_t>{6, 7, 8, 9}));
}

TEST(Tracer, NestedSpansKeepCompletionOrder) {
  Tracer tracer{8};
  // An inner activity finishes (and records) before its enclosing one, as
  // instrumented code does; both survive with their own begin/duration.
  tracer.span("inner", SimTime{110}, SimTime{120});
  tracer.span("outer", SimTime{100}, SimTime{200});
  std::vector<std::string> names;
  std::vector<std::int64_t> durs;
  tracer.for_each([&](const Tracer::Record& r) {
    names.emplace_back(r.name);
    durs.push_back(r.dur_us);
  });
  EXPECT_EQ(names, (std::vector<std::string>{"inner", "outer"}));
  EXPECT_EQ(durs, (std::vector<std::int64_t>{10, 100}));
}

TEST(Tracer, ClearForgetsRecordsAndDrops) {
  Tracer tracer{2};
  for (int i = 0; i < 5; ++i) tracer.instant("e", SimTime{i});
  EXPECT_GT(tracer.dropped(), 0u);
  tracer.clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.size(), 0u);
  tracer.instant("e", SimTime{42});
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Tracer, InternPinsDynamicNames) {
  Tracer tracer{4};
  std::string dynamic = "net.link.";
  dynamic += "host-a";
  const char* pinned = tracer.intern(dynamic);
  dynamic.clear();  // the tracer's copy must be unaffected
  EXPECT_STREQ(pinned, "net.link.host-a");
  // Interning the same name again returns the same pointer.
  EXPECT_EQ(tracer.intern("net.link.host-a"), pinned);
}

TEST(Tracer, JsonEscapesHostileNames) {
  Tracer tracer{4};
  const char* name = tracer.intern("quote\" slash\\ newline\n tab\t ctrl\x01");
  tracer.instant(name, SimTime{1});
  const std::string out = tracer.to_chrome_json();
  // Parse the export back: escaping is correct iff the round trip preserves
  // the raw name exactly.
  const json::Value root = json::parse(out);
  const json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array_items.size(), 1u);
  const json::Value* parsed = events->array_items[0].find("name");
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->string_value, "quote\" slash\\ newline\n tab\t ctrl\x01");
}

TEST(Tracer, ChromeJsonSchema) {
  Tracer tracer{16};
  tracer.span("work", SimTime{100}, SimTime{350}, 2.0);
  tracer.instant("mark", SimTime{400}, 1.0);
  tracer.counter("depth", SimTime{500}, 9.0);
  const json::Value root = json::parse(tracer.to_chrome_json());

  const json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array_items.size(), 3u);
  for (const auto& ev : events->array_items) {
    ASSERT_TRUE(ev.is_object());
    ASSERT_NE(ev.find("name"), nullptr);
    ASSERT_NE(ev.find("ph"), nullptr);
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("pid"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
  }
  EXPECT_EQ(events->array_items[0].at("ph").string_value, "X");
  EXPECT_EQ(events->array_items[0].at("dur").number_value, 250.0);
  EXPECT_EQ(events->array_items[1].at("ph").string_value, "i");
  EXPECT_EQ(events->array_items[2].at("ph").string_value, "C");

  const json::Value* other = root.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->at("dropped_records").number_value, 0.0);
  EXPECT_EQ(other->at("recorded").number_value, 3.0);
}

TEST(Tracer, ChromeJsonReportsDrops) {
  Tracer tracer{2};
  for (int i = 0; i < 7; ++i) tracer.instant("e", SimTime{i});
  const json::Value root = json::parse(tracer.to_chrome_json());
  EXPECT_EQ(root.at("otherData").at("dropped_records").number_value, 5.0);
  EXPECT_EQ(root.at("traceEvents").array_items.size(), 2u);
}

TEST(Tracer, RecordStaysCacheFriendly) {
  EXPECT_LE(sizeof(Tracer::Record), 32u);
}

}  // namespace
}  // namespace vc
