// HealthMonitor unit tests: edge-triggered breach begin/end (no duplicate
// begins while a breach is open), the min_duration gate, finalize() closing
// open breaches, bound-registry breach counters, JSON round-trips, and the
// armed-but-empty monitor leaving timeline bytes untouched.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/metrics_timeline.h"
#include "common/time.h"
#include "common/tracer.h"
#include "health/health_monitor.h"

namespace vc::health {
namespace {

SloRule depth_rule(SimDuration min_duration = SimDuration{}) {
  SloRule r;
  r.rule = "depth-bounded";
  r.metric = "depth";
  r.field = SloRule::Field::kValue;
  r.op = SloRule::Op::kLe;
  r.threshold = 10.0;
  r.severity = Severity::kWarning;
  r.min_duration = min_duration;
  return r;
}

struct Rig {
  MetricsRegistry reg;
  MetricsTimeline timeline;
  HealthMonitor monitor;
  MetricsRegistry::Gauge* depth;
  int tick = 0;

  Rig() {
    MetricsTimeline::Config c;
    c.interval = seconds(1);
    c.capacity = 32;
    timeline = MetricsTimeline{c};
    timeline.bind(reg);
    depth = &reg.gauge("depth");
  }

  void attach() {
    monitor.bind(&reg, nullptr);
    timeline.set_observer(&monitor);
  }

  void step(double value) {
    depth->set(value);
    timeline.sample_now(SimTime{tick * 1'000'000});
    ++tick;
  }
};

TEST(HealthMonitor, EdgeTriggeredBeginAndEndWithoutDuplicates) {
  Rig rig;
  rig.monitor.add_rule(depth_rule());
  rig.attach();

  rig.step(3.0);   // healthy
  rig.step(12.0);  // breach begins
  rig.step(15.0);  // still failing: no second begin
  rig.step(4.0);   // recovers: breach ends
  rig.step(11.0);  // a second, separate breach
  rig.step(2.0);

  const auto& events = rig.monitor.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_TRUE(events[0].begin);
  EXPECT_EQ(events[0].at, SimTime{1'000'000});
  EXPECT_EQ(events[0].observed, 12.0);
  EXPECT_EQ(events[0].severity, Severity::kWarning);
  EXPECT_FALSE(events[1].begin);
  EXPECT_EQ(events[1].at, SimTime{3'000'000});
  EXPECT_TRUE(events[2].begin);
  EXPECT_FALSE(events[3].begin);
  EXPECT_EQ(rig.monitor.total_breaches(), 2u);
  EXPECT_EQ(rig.monitor.open_breaches(), 0u);
  // The bound registry counter saw one inc per breach begin.
  EXPECT_EQ(rig.reg.counter("health.depth-bounded.breaches").value(), 2);
}

TEST(HealthMonitor, MinDurationSuppressesShortBlips) {
  Rig rig;
  rig.monitor.add_rule(depth_rule(millis(2500)));  // needs >2.5 s of failure
  rig.attach();

  rig.step(1.0);
  rig.step(20.0);  // failing 0 s so far
  rig.step(1.0);   // blip over before the gate: no events
  EXPECT_TRUE(rig.monitor.events().empty());

  rig.step(20.0);  // failing since t=3
  rig.step(20.0);
  rig.step(20.0);  // t=5: failing 2 s — still gated
  EXPECT_TRUE(rig.monitor.events().empty());
  rig.step(20.0);  // t=6: failing 3 s >= 2.5 s — begin fires
  ASSERT_EQ(rig.monitor.events().size(), 1u);
  EXPECT_TRUE(rig.monitor.events()[0].begin);
  EXPECT_EQ(rig.monitor.events()[0].at, SimTime{6'000'000});
  EXPECT_EQ(rig.monitor.total_breaches(), 1u);
}

TEST(HealthMonitor, FinalizeClosesOpenBreaches) {
  Rig rig;
  rig.monitor.add_rule(depth_rule());
  rig.attach();
  rig.step(2.0);
  rig.step(50.0);  // breach begins and never recovers
  EXPECT_EQ(rig.monitor.open_breaches(), 1u);
  rig.timeline.finalize();
  const auto& events = rig.monitor.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[1].begin);
  EXPECT_EQ(events[1].at, SimTime{1'000'000});  // closed at the last sample
  EXPECT_EQ(rig.monitor.open_breaches(), 0u);
  EXPECT_EQ(rig.monitor.total_breaches(), 1u);
}

TEST(HealthMonitor, UnknownMetricNeverFires) {
  Rig rig;
  SloRule r = depth_rule();
  r.metric = "no.such.metric";
  rig.monitor.add_rule(r);
  rig.attach();
  for (int i = 0; i < 5; ++i) rig.step(99.0);
  rig.timeline.finalize();
  EXPECT_TRUE(rig.monitor.events().empty());
  EXPECT_EQ(rig.monitor.total_breaches(), 0u);
}

TEST(HealthMonitor, DeltaFieldWatchesPerSampleChange) {
  MetricsRegistry reg;
  MetricsTimeline::Config c;
  c.interval = seconds(1);
  c.capacity = 8;
  MetricsTimeline tl{c};
  tl.bind(reg);
  auto& drops = reg.counter("drops");
  HealthMonitor monitor;
  SloRule r;
  r.rule = "no-drops";
  r.metric = "drops";
  r.field = SloRule::Field::kDelta;
  r.op = SloRule::Op::kEq;
  r.threshold = 0.0;
  r.severity = Severity::kCritical;
  monitor.add_rule(r);
  monitor.bind(&reg, nullptr);
  tl.set_observer(&monitor);

  tl.sample_now(SimTime{0});
  drops.add(4);
  tl.sample_now(SimTime{1'000'000});  // delta 4: breach
  tl.sample_now(SimTime{2'000'000});  // delta 0: recover (cumulative stays 4)
  const auto& events = monitor.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].begin);
  EXPECT_EQ(events[0].observed, 4.0);
  EXPECT_FALSE(events[1].begin);
}

TEST(HealthMonitor, ValidationRejectsBadRules) {
  HealthMonitor monitor;
  SloRule ok = depth_rule();
  monitor.add_rule(ok);
  EXPECT_THROW(monitor.add_rule(ok), std::invalid_argument);  // duplicate name
  SloRule unnamed = depth_rule();
  unnamed.rule.clear();
  EXPECT_THROW(monitor.add_rule(unnamed), std::invalid_argument);
  SloRule no_metric = depth_rule();
  no_metric.rule = "other";
  no_metric.metric.clear();
  EXPECT_THROW(monitor.add_rule(no_metric), std::invalid_argument);
}

TEST(HealthMonitor, RulesJsonRoundTrips) {
  HealthMonitor monitor;
  SloRule a = depth_rule(millis(1500));
  SloRule b;
  b.rule = "reconnect-steady";
  b.metric = "client.reconnects";
  b.field = SloRule::Field::kDelta;
  b.op = SloRule::Op::kEq;
  b.threshold = 0.0;
  b.severity = Severity::kCritical;
  monitor.add_rule(a).add_rule(b);

  const std::vector<SloRule> parsed = HealthMonitor::rules_from_json(monitor.rules_to_json());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].rule, a.rule);
  EXPECT_EQ(parsed[0].metric, a.metric);
  EXPECT_EQ(parsed[0].field, a.field);
  EXPECT_EQ(parsed[0].op, a.op);
  EXPECT_EQ(parsed[0].threshold, a.threshold);
  EXPECT_EQ(parsed[0].severity, a.severity);
  EXPECT_EQ(parsed[0].min_duration, a.min_duration);
  EXPECT_EQ(parsed[1].rule, b.rule);
  EXPECT_EQ(parsed[1].field, SloRule::Field::kDelta);
  EXPECT_EQ(parsed[1].op, SloRule::Op::kEq);
  EXPECT_EQ(parsed[1].severity, Severity::kCritical);
}

TEST(HealthMonitor, RulesFromJsonRejectsMalformedInput) {
  EXPECT_THROW(HealthMonitor::rules_from_json("not json"), std::runtime_error);
  EXPECT_THROW(HealthMonitor::rules_from_json("{}"), std::runtime_error);
  EXPECT_THROW(HealthMonitor::rules_from_json(
                   R"({"slo_rules":[{"rule":"r","metric":"m","op":"~","threshold":0}]})"),
               std::runtime_error);
  EXPECT_THROW(HealthMonitor::rules_from_json(
                   R"({"slo_rules":[{"rule":"r","metric":"m","field":"bogus","op":"<=",)"
                   R"("threshold":0}]})"),
               std::runtime_error);
  EXPECT_THROW(HealthMonitor::rules_from_json(
                   R"({"slo_rules":[{"rule":"","metric":"m","op":"<=","threshold":0}]})"),
               std::runtime_error);
}

TEST(HealthMonitor, RulesFromJsonRejectsMinDurationBeyondTwoToThe53Micros) {
  // Cast to microseconds unchecked, 1e300 ms would be undefined behaviour.
  EXPECT_THROW(HealthMonitor::rules_from_json(
                   R"({"slo_rules":[{"rule":"r","metric":"m","op":"<=","threshold":0,)"
                   R"("min_duration_ms":1e300}]})"),
               std::runtime_error);
}

TEST(HealthMonitor, ToJsonRecordsEventsAndBreaches) {
  Rig rig;
  rig.monitor.add_rule(depth_rule());
  rig.attach();
  rig.step(1.0);
  rig.step(30.0);
  rig.step(1.0);
  rig.timeline.finalize();
  const std::string json = rig.monitor.to_json();
  EXPECT_NE(json.find("\"rule\":\"depth-bounded\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"begin\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"end\""), std::string::npos);
  EXPECT_NE(json.find("\"breaches\":{\"depth-bounded\":1}"), std::string::npos);
}

TEST(HealthMonitor, ArmedEmptyMonitorLeavesTimelineBytesIdentical) {
  auto drive = [](bool with_monitor) {
    MetricsRegistry reg;
    MetricsTimeline::Config c;
    c.interval = seconds(1);
    c.capacity = 8;
    MetricsTimeline tl{c};
    tl.bind(reg);
    HealthMonitor monitor;  // zero rules
    if (with_monitor) {
      monitor.bind(&reg, nullptr);
      tl.set_observer(&monitor);
    }
    auto& work = reg.counter("work");
    for (int i = 0; i < 12; ++i) {
      work.add(i);
      tl.sample_now(SimTime{i * 1'000'000});
    }
    tl.finalize();
    if (with_monitor) {
      EXPECT_TRUE(monitor.events().empty());
      EXPECT_EQ(monitor.total_breaches(), 0u);
    }
    return tl.to_json();
  };
  EXPECT_EQ(drive(true), drive(false));
}

TEST(HealthMonitor, BreachEdgesLandInTracer) {
  Tracer tracer{256};
  Rig rig;
  rig.monitor.add_rule(depth_rule());
  rig.monitor.bind(&rig.reg, &tracer);
  rig.timeline.set_observer(&rig.monitor);
  rig.step(1.0);
  rig.step(30.0);
  rig.step(1.0);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("health.breach_begin.depth-bounded"), std::string::npos);
  EXPECT_NE(json.find("health.breach_end.depth-bounded"), std::string::npos);
}

}  // namespace
}  // namespace vc::health
