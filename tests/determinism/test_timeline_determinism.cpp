// Acceptance test for the observability subsystem's determinism contract: a
// sampled, SLO-monitored faulted session must emit byte-identical runner
// aggregate reports AND per-task timeline files (snapshots + health events)
// at every runner thread count. Sampling ticks read sim time and registry
// state only, and rule evaluation draws zero randomness, so the whole
// observability layer sits inside the same contract as the simulation it
// watches.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_recovery_benchmark.h"
#include "health/health_monitor.h"
#include "runner/experiment_runner.h"

namespace vc {
namespace {

constexpr std::size_t kTasks = 2;

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

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

struct SampledRun {
  std::string aggregate_json;
  std::vector<std::string> timeline_files;
};

SampledRun run_sampled(std::size_t threads, const std::string& tag) {
  const std::string dir = testing::TempDir() + "vc_timeline_" + tag;
  runner::ExperimentRunner::Config rc;
  rc.threads = threads;
  rc.base_seed = 23;
  rc.label = "timeline-determinism";
  rc.timeline_dir = dir;
  rc.timeline_interval = millis(500);
  rc.timeline_capacity = 256;
  rc.health_rules = slo_rules();
  const auto report =
      runner::ExperimentRunner{rc}.run(kTasks, [](runner::SessionContext& ctx) {
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
      });
  EXPECT_TRUE(report.failures.empty());
  EXPECT_TRUE(report.timeline.enabled);
  EXPECT_GT(report.timeline.samples, 0u);
  EXPECT_EQ(report.timeline.health_rules, 2u * kTasks);
  EXPECT_GT(report.timeline.health_breaches, 0u);
  EXPECT_EQ(report.timeline.write_failures, 0u);
  SampledRun out;
  out.aggregate_json = report.aggregate_json();
  for (std::size_t i = 0; i < kTasks; ++i) {
    out.timeline_files.push_back(slurp(dir + "/" + std::to_string(i) + ".timeline.json"));
    EXPECT_FALSE(out.timeline_files.back().empty()) << "missing timeline file for task " << i;
  }
  return out;
}

TEST(TimelineDeterminism, SampledSessionIdenticalAcrossThreads) {
  const SampledRun base = run_sampled(1, "t1");
  ASSERT_EQ(base.timeline_files.size(), kTasks);
  // The files carry both sections, and the breach edges made it in.
  EXPECT_NE(base.timeline_files[0].find("\"timeline\":"), std::string::npos);
  EXPECT_NE(base.timeline_files[0].find("\"health\":"), std::string::npos);
  EXPECT_NE(base.timeline_files[0].find("\"type\":\"begin\""), std::string::npos);
  // Breach counters crossed into the metrics reduction.
  EXPECT_NE(base.aggregate_json.find("health.reconnect-steady.breaches"), std::string::npos);

  const SampledRun other = run_sampled(8, "t8");
  EXPECT_EQ(other.aggregate_json, base.aggregate_json) << "report drifted at threads=8";
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(other.timeline_files[i], base.timeline_files[i])
        << "timeline file " << i << " drifted at threads=8";
  }
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
    return report.aggregate_json() + "\n---\n" + slurp(dir + "/0.timeline.json");
  };
  EXPECT_EQ(run_once(true, "a"), run_once(false, "b"));
}

}  // namespace
}  // namespace vc
