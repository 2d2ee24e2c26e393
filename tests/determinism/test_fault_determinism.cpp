// Acceptance test for the fault subsystem's determinism contract: a
// flight-recorded faulted session — relay crash, detection, backoff,
// re-join, subscription re-establishment — must emit byte-identical runner
// aggregate reports AND per-task trace files at every runner thread count.
// Faults draw no randomness of their own and reconnect jitter comes from
// controller-owned RNGs, so the whole recovery path sits inside the same
// contract as a healthy run.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_recovery_benchmark.h"
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

struct FaultedRun {
  std::string aggregate_json;
  std::vector<std::string> trace_files;
};

FaultedRun run_faulted(std::size_t threads, const std::string& tag) {
  const std::string dir = testing::TempDir() + "vc_fault_" + tag;
  runner::ExperimentRunner::Config rc;
  rc.threads = threads;
  rc.base_seed = 23;
  rc.label = "fault-determinism";
  rc.trace_dir = dir;
  rc.trace_capacity = 4096;
  const auto report =
      runner::ExperimentRunner{rc}.run(kTasks, [](runner::SessionContext& ctx) {
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
      });
  EXPECT_TRUE(report.failures.empty());
  EXPECT_TRUE(report.trace.enabled);
  EXPECT_GT(report.trace.records, 0u);
  FaultedRun out;
  out.aggregate_json = report.aggregate_json();
  for (std::size_t i = 0; i < kTasks; ++i) {
    out.trace_files.push_back(slurp(dir + "/" + std::to_string(i) + ".trace.json"));
    EXPECT_FALSE(out.trace_files.back().empty()) << "missing trace file for task " << i;
  }
  return out;
}

TEST(FaultDeterminism, FaultedSessionIdenticalAcrossThreads) {
  const FaultedRun base = run_faulted(1, "t1");
  ASSERT_EQ(base.trace_files.size(), kTasks);
  // The crash/recovery chain reached the aggregate report's counters. (The
  // trace ring only retains the latest window, so the crash instants at 5 s
  // may be evicted — the byte-identity checks below still cover the files.)
  EXPECT_NE(base.aggregate_json.find("fault.relay_crashes"), std::string::npos);

  const FaultedRun other = run_faulted(8, "t8");
  EXPECT_EQ(other.aggregate_json, base.aggregate_json) << "report drifted at threads=8";
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(other.trace_files[i], base.trace_files[i])
        << "trace file " << i << " drifted at threads=8";
  }
}

}  // namespace
}  // namespace vc
