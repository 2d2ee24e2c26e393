// vc::cli renderer tests: report rendering must accept every report vintage
// (PR 4 samples-only through pre-timeline PR 8 shapes) and exit 0, reserving
// exit 2 for genuinely unusable input; the profile renderer's self-time
// split and busy-chain detection are checked against hand-built traces; and
// parse_timeline must decode delta-encoded counters back to the exact
// cumulative values the registry held.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cli/report_render.h"
#include "cli/timeline_render.h"
#include "cli/trace_profile.h"
#include "common/metrics.h"
#include "common/metrics_timeline.h"
#include "common/time.h"
#include "health/health_monitor.h"

namespace vc::cli {
namespace {

// ---- report rendering ----------------------------------------------------

constexpr const char* kPr4Report = R"({
  "label": "fig4", "base_seed": 7, "sessions": 3, "failures": [],
  "samples": {"lag_ms": {"count": 3, "mean": 120.5, "stddev": 4.0,
                         "min": 115.0, "max": 126.0, "sum": 361.5}}
})";

constexpr const char* kPr6Report = R"({
  "label": "fairness", "base_seed": 9, "sessions": 2, "failures": [],
  "samples": {"jain": {"count": 2, "mean": 0.97, "stddev": 0.0,
                       "min": 0.97, "max": 0.97, "sum": 1.94}},
  "counters": {"abr.decisions": 42},
  "gauges": {"queue.depth": {"count": 2, "mean": 1.5, "stddev": 0.5,
                             "min": 1.0, "max": 2.0, "sum": 3.0}},
  "histograms": {}
})";

constexpr const char* kPr8TracedReport = R"({
  "aggregate": {
    "label": "traced", "base_seed": 3, "sessions": 1, "failures": [],
    "samples": {},
    "counters": {"relay.media_forwarded": 100},
    "trace": {"records": 500, "dropped": 0, "spans": 300, "instants": 100,
              "counter_samples": 100, "write_failures": 0}
  },
  "threads": 8, "wall_seconds": 1.5
})";

TEST(ReportRender, OldFormatReportsRenderAndExitZero) {
  for (const char* report : {kPr4Report, kPr6Report, kPr8TracedReport}) {
    const RenderResult r = render_report("r.json", report, ReportOptions{});
    EXPECT_EQ(r.exit_code, 0) << report;
    EXPECT_TRUE(r.err.empty()) << r.err;
    EXPECT_NE(r.out.find("report r.json"), std::string::npos);
  }
  // Section contents actually made it out.
  const RenderResult pr6 = render_report("r.json", kPr6Report, ReportOptions{});
  EXPECT_NE(pr6.out.find("jain"), std::string::npos);
  EXPECT_NE(pr6.out.find("abr.decisions"), std::string::npos);
  EXPECT_NE(pr6.out.find("queue.depth"), std::string::npos);
}

TEST(ReportRender, MinimalReportMissingEverySectionStillExitsZero) {
  const RenderResult r = render_report("r.json", R"({"label": "bare"})", ReportOptions{});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("label=bare"), std::string::npos);
}

TEST(ReportRender, UnusableInputExitsTwo) {
  EXPECT_EQ(render_report("r.json", "{not json", ReportOptions{}).exit_code, 2);
  EXPECT_EQ(render_report("r.json", "[1,2,3]", ReportOptions{}).exit_code, 2);
}

TEST(ReportRender, CdfOnSamplesFreeReportIsFriendlyNotFatal) {
  ReportOptions opts;
  opts.cdf_base = "lag_ms";
  const RenderResult r = render_report("r.json", R"({"label": "bare", "counters": {}})", opts);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("no samples section"), std::string::npos);
}

TEST(ReportRender, TraceDropWarningOnlyWhenRecordsWereLost) {
  const RenderResult clean = render_report("r.json", kPr8TracedReport, ReportOptions{});
  EXPECT_EQ(clean.out.find("WARNING"), std::string::npos);
  const std::string wrapped = R"({
    "label": "traced", "base_seed": 3, "sessions": 1,
    "trace": {"records": 500, "dropped": 123, "spans": 300, "instants": 100,
              "counter_samples": 100, "write_failures": 0}
  })";
  const RenderResult r = render_report("r.json", wrapped, ReportOptions{});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("WARNING: trace ring wrapped"), std::string::npos);
  EXPECT_NE(r.out.find("123"), std::string::npos);
}

TEST(ReportRender, TimelineSummaryAndGaugeHwmSectionsRender) {
  const std::string report = R"({
    "label": "obs", "base_seed": 1, "sessions": 2,
    "gauge_hwm": {"net.queue_depth": {"count": 2, "mean": 12.0, "stddev": 0.0,
                                      "min": 12.0, "max": 12.0, "sum": 24.0}},
    "timeline": {"samples": 40, "columns": 10, "dropped": 0, "write_failures": 0,
                 "health_rules": 2, "health_events": 6, "health_breaches": 3}
  })";
  const RenderResult r = render_report("r.json", report, ReportOptions{});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("timeline: 40 samples over 10 columns, 0 dropped"), std::string::npos);
  EXPECT_NE(r.out.find("health: 2 rule(s), 6 event(s), 3 breach(es)"), std::string::npos);
  EXPECT_NE(r.out.find("gauge high-water marks"), std::string::npos);
  EXPECT_NE(r.out.find("net.queue_depth"), std::string::npos);

  ReportOptions list;
  list.list = true;
  const RenderResult listed = render_report("r.json", report, list);
  EXPECT_NE(listed.out.find("gauge_hwm net.queue_depth"), std::string::npos);
}

// ---- trace profiling -----------------------------------------------------

std::string trace_with(const std::string& events, const std::string& other = "") {
  return "{\"traceEvents\":[" + events + "]" +
         (other.empty() ? "" : ",\"otherData\":{" + other + "}") + "}";
}

TEST(TraceProfile, SelfTimeExcludesNestedChildWindows) {
  // parent [0, 100 ms] contains child [20, 60 ms]: parent self = 60 ms.
  const std::string trace = trace_with(
      R"({"name":"parent","ph":"X","ts":0,"dur":100000},)"
      R"({"name":"child","ph":"X","ts":20000,"dur":40000})");
  const RenderResult r = render_profile({{"t.json", trace}}, ProfileOptions{});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("profile over 1 trace(s)"), std::string::npos);
  EXPECT_NE(r.out.find("parent"), std::string::npos);
  EXPECT_NE(r.out.find("100.000"), std::string::npos);  // parent total
  EXPECT_NE(r.out.find("60.000"), std::string::npos);   // parent self
  EXPECT_NE(r.out.find("40.000"), std::string::npos);   // child total == self
  // Ranked by self time: parent (60 ms) above child (40 ms).
  EXPECT_LT(r.out.find("parent"), r.out.find("child"));
}

TEST(TraceProfile, OverlappingSpansNeverGoNegative) {
  // b overlaps a's tail beyond a's end: only the contained part is credited.
  const std::string trace = trace_with(
      R"({"name":"a","ph":"X","ts":0,"dur":50000},)"
      R"({"name":"b","ph":"X","ts":40000,"dur":50000})");
  const RenderResult r = render_profile({{"t.json", trace}}, ProfileOptions{});
  ASSERT_EQ(r.exit_code, 0);
  // a self = 50 - min(90,50)+40 = 40 ms; b self = full 50 ms.
  EXPECT_NE(r.out.find("40.000"), std::string::npos);
  EXPECT_NE(r.out.find("50.000"), std::string::npos);
}

TEST(TraceProfile, BusyChainsSpanUntilTheLoopDrains) {
  // Two bursts: depths 3,2,0 (3 records) and 1,0 (2 records); the lone 0 at
  // ts 50 never opens a chain.
  const std::string trace = trace_with(
      R"({"name":"loop.exec","ph":"X","ts":0,"dur":0,"args":{"value":3}},)"
      R"({"name":"loop.exec","ph":"X","ts":10,"dur":0,"args":{"value":2}},)"
      R"({"name":"loop.exec","ph":"X","ts":20,"dur":0,"args":{"value":0}},)"
      R"({"name":"loop.exec","ph":"X","ts":50,"dur":0,"args":{"value":0}},)"
      R"({"name":"loop.exec","ph":"X","ts":80,"dur":0,"args":{"value":1}},)"
      R"({"name":"loop.exec","ph":"X","ts":90,"dur":0,"args":{"value":0}})");
  const RenderResult r = render_profile({{"t.json", trace}}, ProfileOptions{});
  ASSERT_EQ(r.exit_code, 0);
  ASSERT_NE(r.out.find("busiest loop.exec chains"), std::string::npos);
  const std::string chains = r.out.substr(r.out.find("busiest"));
  EXPECT_NE(chains.find("3"), std::string::npos);  // longest chain: 3 events
  EXPECT_NE(chains.find("0.020"), std::string::npos);  // its extent in ms
}

TEST(TraceProfile, RingWrapSurfacesAsWarning) {
  const std::string trace = trace_with(
      R"({"name":"a","ph":"X","ts":0,"dur":10})", R"("dropped_records": 77)");
  const RenderResult r = render_profile({{"t.json", trace}}, ProfileOptions{});
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("WARNING: trace ring wrapped"), std::string::npos);
  EXPECT_NE(r.out.find("77"), std::string::npos);
  // The warning leads the output so it cannot be missed below a long table.
  EXPECT_LT(r.out.find("WARNING"), r.out.find("profile over"));
}

TEST(TraceProfile, RecordTableCountsEveryNameAndPhase) {
  // Two relay.fwd spans (10 and 30 us, values 2 and 4), two instants with a
  // value, one counter sample, and one span whose name the filter below
  // drops.
  const std::string trace = trace_with(
      R"({"name":"relay.fwd","ph":"X","ts":0,"dur":10,"args":{"value":2}},)"
      R"({"name":"relay.fwd","ph":"X","ts":100,"dur":30,"args":{"value":4}},)"
      R"({"name":"client.reconnected","ph":"i","ts":50,"s":"t","args":{"value":1.5}},)"
      R"({"name":"client.reconnected","ph":"i","ts":60,"s":"t","args":{"value":2.5}},)"
      R"({"name":"loop.depth","ph":"C","ts":70,"args":{"value":7}},)"
      R"({"name":"codec.encode","ph":"X","ts":200,"dur":5})",
      R"("dropped_records": 0, "recorded": 6)");
  const RenderResult r = render_profile({{"t.json", trace}}, ProfileOptions{});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("recorded 6, dropped 0 (ring wrap)"), std::string::npos);
  EXPECT_EQ(r.out.find("WARNING"), std::string::npos);
  ASSERT_NE(r.out.find("records by name and phase"), std::string::npos);
  const std::string table = r.out.substr(r.out.find("records by name and phase"));
  auto row = [&table](const std::string& lead) {
    const std::size_t at = table.find(lead);
    return at == std::string::npos ? std::string{} : table.substr(at, table.find('\n', at) - at);
  };
  // Span: count, mean/min/max duration, mean value.
  const std::string fwd = row("relay.fwd");
  EXPECT_NE(fwd.find(" X "), std::string::npos) << fwd;
  EXPECT_NE(fwd.find(" 2 "), std::string::npos) << fwd;
  EXPECT_NE(fwd.find("20.0"), std::string::npos) << fwd;
  EXPECT_NE(fwd.find("10.0"), std::string::npos) << fwd;
  EXPECT_NE(fwd.find("30.0"), std::string::npos) << fwd;
  EXPECT_NE(fwd.find("3.000"), std::string::npos) << fwd;
  // Instant and counter: no durations, the mean value.
  const std::string instant = row("client.reconnected");
  EXPECT_NE(instant.find(" i "), std::string::npos) << instant;
  EXPECT_NE(instant.find("2.000"), std::string::npos) << instant;
  EXPECT_NE(instant.find(" - "), std::string::npos) << instant;
  const std::string counter = row("loop.depth");
  EXPECT_NE(counter.find(" C "), std::string::npos) << counter;
  EXPECT_NE(counter.find("7.000"), std::string::npos) << counter;
  // A span with no args.value has no value mean.
  const std::string encode = row("codec.encode");
  EXPECT_NE(encode.find("5.0"), std::string::npos) << encode;
  EXPECT_EQ(encode.find(".000"), std::string::npos) << encode;

  // The name filter applies to the record table too.
  ProfileOptions only_relay;
  only_relay.filter = "RELAY";
  const RenderResult filtered = render_profile({{"t.json", trace}}, only_relay);
  const std::string kept = filtered.out.substr(filtered.out.find("records by name and phase"));
  EXPECT_NE(kept.find("relay.fwd"), std::string::npos);
  EXPECT_EQ(kept.find("client.reconnected"), std::string::npos);
  EXPECT_EQ(kept.find("loop.depth"), std::string::npos);
}

TEST(TraceProfile, RecordedAndDroppedTotalsSumOverTraces) {
  const std::string a = trace_with(R"({"name":"a","ph":"X","ts":0,"dur":10})",
                                   R"("dropped_records": 3, "recorded": 10)");
  const std::string b = trace_with(R"({"name":"a","ph":"X","ts":0,"dur":30})",
                                   R"("dropped_records": 0, "recorded": 4)");
  const RenderResult r = render_profile({{"a.json", a}, {"b.json", b}}, ProfileOptions{});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("recorded 14, dropped 3 (ring wrap)"), std::string::npos) << r.out;
  // One row pools both traces' spans of a name.
  const std::string table = r.out.substr(r.out.find("records by name and phase"));
  EXPECT_NE(table.find("20.0"), std::string::npos) << table;
}

TEST(TraceProfile, NoParsableInputExitsTwo) {
  EXPECT_EQ(render_profile({}, ProfileOptions{}).exit_code, 2);
  EXPECT_EQ(render_profile({{"bad.json", "{nope"}}, ProfileOptions{}).exit_code, 2);
  // One good file among bad ones still renders.
  const RenderResult r = render_profile(
      {{"bad.json", "{nope"}, {"good.json", trace_with(R"({"name":"a","ph":"X","ts":0,"dur":10})")}},
      ProfileOptions{});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_FALSE(r.err.empty());  // the bad file is still reported
}

// ---- timeline parsing / rendering ----------------------------------------

TEST(TimelineRender, ParseDecodesDeltasBackToRegistryTruth) {
  MetricsRegistry reg;
  auto& c = reg.counter("work");
  auto& g = reg.gauge("depth");
  MetricsTimeline::Config tc;
  tc.interval = millis(500);
  tc.capacity = 4;  // force a wrap so decode crosses a folded base
  MetricsTimeline tl{tc};
  tl.bind(reg);
  std::vector<double> truth;
  for (int i = 0; i < 9; ++i) {
    c.add(2 * i + 1);
    g.set(static_cast<double>(i));
    truth.push_back(static_cast<double>(c.value()));
    tl.sample_now(SimTime{i * 500'000});
  }
  tl.finalize();

  const TimelineDoc doc = parse_timeline("{\"timeline\":" + tl.to_json() + "}\n");
  EXPECT_EQ(doc.samples, 4u);
  EXPECT_EQ(doc.dropped, 5u);
  EXPECT_EQ(doc.interval_us, 500'000);
  ASSERT_EQ(doc.ts_us.size(), 4u);
  EXPECT_EQ(doc.ts_us.front(), 5 * 500'000);
  ASSERT_EQ(doc.series.size(), 2u);  // counters sorted before gauges
  EXPECT_EQ(doc.series[0].name, "work");
  const std::vector<double> window{truth.begin() + 5, truth.end()};
  EXPECT_EQ(doc.series[0].values, window);
  EXPECT_EQ(doc.series[1].name, "depth");
  EXPECT_EQ(doc.series[1].values, (std::vector<double>{5, 6, 7, 8}));
}

TEST(TimelineRender, HealthSectionAndSparklinesRender) {
  MetricsRegistry reg;
  auto& g = reg.gauge("depth");
  MetricsTimeline::Config tc;
  tc.interval = seconds(1);
  tc.capacity = 32;
  MetricsTimeline tl{tc};
  tl.bind(reg);
  health::HealthMonitor monitor;
  health::SloRule rule;
  rule.rule = "depth-bounded";
  rule.metric = "depth";
  rule.op = health::SloRule::Op::kLe;
  rule.threshold = 5.0;
  monitor.add_rule(rule);
  monitor.bind(&reg, nullptr);
  tl.set_observer(&monitor);
  const double values[] = {1.0, 8.0, 2.0};
  for (int i = 0; i < 3; ++i) {
    g.set(values[i]);
    tl.sample_now(SimTime{i * 1'000'000});
  }
  tl.finalize();
  const std::string file =
      "{\"timeline\":" + tl.to_json() + ",\"health\":" + monitor.to_json() + "}\n";

  TimelineOptions overview;
  const RenderResult table = render_timeline("0.timeline.json", file, overview);
  ASSERT_EQ(table.exit_code, 0) << table.err;
  EXPECT_NE(table.out.find("3 sample(s)"), std::string::npos);
  EXPECT_NE(table.out.find("depth"), std::string::npos);
  EXPECT_NE(table.out.find("SLO events"), std::string::npos);
  EXPECT_NE(table.out.find("BREACH"), std::string::npos);
  EXPECT_NE(table.out.find("recover"), std::string::npos);
  EXPECT_NE(table.out.find("depth-bounded: 1 breach(es)"), std::string::npos);

  TimelineOptions spark;
  spark.metric = "depth";
  const RenderResult sparks = render_timeline("0.timeline.json", file, spark);
  ASSERT_EQ(sparks.exit_code, 0);
  EXPECT_NE(sparks.out.find("depth  [1.000 .. 8.000]"), std::string::npos);
  EXPECT_NE(sparks.out.find("|"), std::string::npos);

  TimelineOptions json_opt;
  json_opt.json = true;
  json_opt.metric = "depth";
  const RenderResult json_out = render_timeline("0.timeline.json", file, json_opt);
  ASSERT_EQ(json_out.exit_code, 0);
  EXPECT_NE(json_out.out.find("\"name\":\"depth\""), std::string::npos);
  EXPECT_NE(json_out.out.find("\"values\":[1,8,2]"), std::string::npos);
}

TEST(TimelineRender, MalformedTimelineExitsTwo) {
  EXPECT_EQ(render_timeline("t", "{nope", TimelineOptions{}).exit_code, 2);
  EXPECT_EQ(render_timeline("t", R"({"no_timeline": true})", TimelineOptions{}).exit_code, 2);
  // ts_us length disagreeing with samples is unusable, not renderable.
  const std::string bad = R"({"interval_us":1000,"total_samples":3,"samples":3,
    "dropped":0,"ts_us":[0,1000],"counters":[],"gauges":[],"histograms":[]})";
  EXPECT_EQ(render_timeline("t", bad, TimelineOptions{}).exit_code, 2);
  EXPECT_THROW(parse_timeline(bad), std::runtime_error);
}

TEST(TimelineRender, UnmatchedMetricIsFriendly) {
  const std::string file = R"({"interval_us":1000,"total_samples":1,"samples":1,
    "dropped":0,"ts_us":[0],
    "counters":[{"name":"work","start":0,"base":0,"deltas":[3]}],
    "gauges":[],"histograms":[]})";
  TimelineOptions opts;
  opts.metric = "no.such.metric";
  const RenderResult r = render_timeline("t", file, opts);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("no series matches"), std::string::npos);
}

}  // namespace
}  // namespace vc::cli
