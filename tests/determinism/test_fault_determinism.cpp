// Acceptance test for the fault subsystem's determinism contract: a
// flight-recorded faulted session — relay crash, detection, backoff,
// re-join, subscription re-establishment — must emit byte-identical runner
// aggregate reports AND per-task trace files at every runner thread count.
// Faults draw no randomness of their own and reconnect jitter comes from
// controller-owned RNGs, so the whole recovery path sits inside the same
// contract as a healthy run.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "bench/bench_util.h"
#include "core/fault_recovery_benchmark.h"
#include "runner/experiment_runner.h"

namespace vc {
namespace {

constexpr std::size_t kTasks = 2;

void faulted_task(runner::SessionContext& ctx) {
  core::FaultRecoveryConfig cfg;
  cfg.platform = platform::PlatformId::kZoom;
  cfg.session_duration = seconds(20);
  cfg.outage_start = seconds(5);
  cfg.outage_duration = seconds(2);
  cfg.seed = ctx.seed;
  cfg.metrics = &ctx.metrics;
  cfg.tracer = ctx.tracer;
  const auto r = core::run_fault_recovery_benchmark(cfg);
  // The fault actually bit: every client cycled through reconnect.
  EXPECT_EQ(r.disconnects, 3);
  EXPECT_EQ(r.reconnects, 3);
  ctx.sample("reconnects", static_cast<double>(r.reconnects));
  ctx.sample("mean_ttr_ms", r.mean_time_to_reconnect_ms);
  ctx.sample("packets_lost", static_cast<double>(r.packets_lost_in_outage));
  for (double lag : r.lags_during_ms) ctx.sample("lag_during", lag);
  for (double lag : r.lags_after_ms) ctx.sample("lag_after", lag);
}

TEST(FaultDeterminism, FaultedSessionIdenticalAcrossThreads) {
  runner::ExperimentRunner::Config rc;
  rc.base_seed = 23;
  rc.label = "fault-determinism";
  rc.trace_dir = testing::TempDir() + "vc_fault";
  rc.trace_capacity = 4096;
  const vcb::CheckedRun run = vcb::run_checked(rc, kTasks, faulted_task);
  // Aggregates and every per-task trace file byte-identical, no task failed.
  ASSERT_TRUE(run.ok());
  for (const runner::RunReport* report : {&run.serial, &run.report}) {
    EXPECT_TRUE(report->trace.enabled);
    EXPECT_GT(report->trace.records, 0u);
  }
  for (std::size_t i = 0; i < kTasks; ++i) {
    std::string trace;
    ASSERT_TRUE(
        runner::read_text_file(rc.trace_dir + "/t1/" + std::to_string(i) + ".trace.json", &trace));
    EXPECT_FALSE(trace.empty()) << "empty trace file for task " << i;
  }
  // The crash/recovery chain reached the aggregate report's counters. (The
  // trace ring only retains the latest window, so the crash instants at 5 s
  // may be evicted — the byte-identity check above still covers the files.)
  EXPECT_NE(run.serial.aggregate_json().find("fault.relay_crashes"), std::string::npos);
}

}  // namespace
}  // namespace vc
