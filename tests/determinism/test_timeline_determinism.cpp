// Acceptance test for the observability subsystem's determinism contract: a
// sampled, SLO-monitored faulted session must emit byte-identical runner
// aggregate reports AND per-task timeline files (snapshots + health events)
// at every runner thread count. Sampling ticks read sim time and registry
// state only, and rule evaluation draws zero randomness, so the whole
// observability layer sits inside the same contract as the simulation it
// watches.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fault_recovery_benchmark.h"
#include "health/health_monitor.h"
#include "runner/experiment_runner.h"

namespace vc {
namespace {

constexpr std::size_t kTasks = 2;

std::vector<health::SloRule> slo_rules() {
  health::SloRule reconnects;
  reconnects.rule = "reconnect-steady";
  reconnects.metric = "client.reconnects";
  reconnects.field = health::SloRule::Field::kDelta;
  reconnects.op = health::SloRule::Op::kEq;
  reconnects.threshold = 0.0;
  reconnects.severity = health::Severity::kWarning;
  health::SloRule disconnects;
  disconnects.rule = "no-disconnects";
  disconnects.metric = "client.disconnects";
  disconnects.field = health::SloRule::Field::kDelta;
  disconnects.op = health::SloRule::Op::kEq;
  disconnects.threshold = 0.0;
  disconnects.severity = health::Severity::kCritical;
  return {reconnects, disconnects};
}

void sampled_task(runner::SessionContext& ctx) {
  core::FaultRecoveryConfig cfg;
  cfg.platform = platform::PlatformId::kZoom;
  cfg.session_duration = seconds(20);
  cfg.outage_start = seconds(5);
  cfg.outage_duration = seconds(2);
  cfg.seed = ctx.seed;
  cfg.metrics = &ctx.metrics;
  cfg.timeline = ctx.timeline;
  const auto r = core::run_fault_recovery_benchmark(cfg);
  EXPECT_EQ(r.reconnects, 3);
  // The monitor saw the outage as it happened: the reconnect rule's
  // breach begins fall inside the [outage_begin, recovery_end) span.
  ASSERT_NE(ctx.health, nullptr);
  int begins_during = 0;
  for (const auto& ev : ctx.health->events()) {
    if (ev.begin && ev.at >= r.outage_begin_abs && ev.at < r.recovery_end_abs) {
      ++begins_during;
    }
  }
  EXPECT_GT(begins_during, 0);
  ctx.sample("reconnects", static_cast<double>(r.reconnects));
  ctx.sample("mean_ttr_ms", r.mean_time_to_reconnect_ms);
}

TEST(TimelineDeterminism, SampledSessionIdenticalAcrossThreads) {
  runner::ExperimentRunner::Config rc;
  rc.base_seed = 23;
  rc.label = "timeline-determinism";
  rc.timeline_dir = testing::TempDir() + "vc_timeline";
  rc.timeline_interval = millis(500);
  rc.timeline_capacity = 256;
  rc.health_rules = slo_rules();
  const vcb::CheckedRun run = vcb::run_checked(rc, kTasks, sampled_task);
  // Aggregates and every per-task timeline file byte-identical, no task failed.
  ASSERT_TRUE(run.ok());
  for (const runner::RunReport* report : {&run.serial, &run.report}) {
    EXPECT_TRUE(report->timeline.enabled);
    EXPECT_GT(report->timeline.samples, 0u);
    EXPECT_EQ(report->timeline.health_rules, 2u * kTasks);
    EXPECT_GT(report->timeline.health_breaches, 0u);
    EXPECT_EQ(report->timeline.write_failures, 0u);
  }
  std::vector<std::string> files(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(runner::read_text_file(
        rc.timeline_dir + "/t1/" + std::to_string(i) + ".timeline.json", &files[i]));
    EXPECT_FALSE(files[i].empty()) << "empty timeline file for task " << i;
  }
  // The files carry both sections, and the breach edges made it in.
  EXPECT_NE(files[0].find("\"timeline\":"), std::string::npos);
  EXPECT_NE(files[0].find("\"health\":"), std::string::npos);
  EXPECT_NE(files[0].find("\"type\":\"begin\""), std::string::npos);
  // Breach counters crossed into the metrics reduction.
  EXPECT_NE(run.serial.aggregate_json().find("health.reconnect-steady.breaches"),
            std::string::npos);
}

// A monitored run with zero rules must be byte-identical to an unmonitored
// one — the observability twin of the armed-but-empty fault plan gate.
TEST(TimelineDeterminism, ArmedEmptyMonitorLeavesRunBytesIdentical) {
  auto run_once = [](bool with_empty_monitor, const char* tag) {
    const std::string dir = testing::TempDir() + "vc_timeline_empty_" + tag;
    // Declared outside the task: the runner finalizes the timeline (which
    // notifies the observer) after the task returns.
    health::HealthMonitor empty_monitor;
    runner::ExperimentRunner::Config rc;
    rc.threads = 2;
    rc.base_seed = 23;
    rc.label = "timeline-empty";
    rc.timeline_dir = dir;
    rc.timeline_interval = millis(500);
    const auto report = runner::ExperimentRunner{rc}.run(1, [&](runner::SessionContext& ctx) {
      if (with_empty_monitor && ctx.timeline != nullptr) {
        ctx.timeline->set_observer(&empty_monitor);
      }
      core::FaultRecoveryConfig cfg;
      cfg.platform = platform::PlatformId::kZoom;
      cfg.session_duration = seconds(10);
      cfg.outage_start = seconds(4);
      cfg.outage_duration = seconds(1);
      cfg.seed = ctx.seed;
      cfg.metrics = &ctx.metrics;
      cfg.timeline = ctx.timeline;
      core::run_fault_recovery_benchmark(cfg);
    });
    EXPECT_TRUE(report.failures.empty());
    std::string timeline;
    EXPECT_TRUE(runner::read_text_file(dir + "/0.timeline.json", &timeline));
    return report.aggregate_json() + "\n---\n" + timeline;
  };
  EXPECT_EQ(run_once(true, "a"), run_once(false, "b"));
}

}  // namespace
}  // namespace vc
