// Property tests for the fault subsystem's determinism contract: randomly
// generated fault plans (seeded, so each "random" plan is reproducible) must
// yield byte-identical runner aggregate reports at every thread count, and
// an armed-but-empty plan must be indistinguishable from no plan at all.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/fault_recovery_benchmark.h"
#include "runner/experiment_runner.h"

namespace vc::fault {
namespace {

/// A reproducible plan from `seed`: 2–5 events mixing every fault kind,
/// aimed at the benchmark scenario's participant VMs and session relay.
FaultPlan random_plan(std::uint64_t seed) {
  Rng rng{seed};
  const std::vector<std::string> hosts = {"US-West", "US-Central"};
  FaultPlan plan;
  const int n = static_cast<int>(rng.uniform_int(2, 5));
  for (int i = 0; i < n; ++i) {
    const SimDuration at = millis(rng.uniform_int(2000, 10'000));
    switch (rng.index(5)) {
      case 0:
        plan.link_rate(at, hosts[rng.index(hosts.size())],
                       DataRate::kbps(static_cast<double>(rng.uniform_int(1, 8)) * 250.0));
        break;
      case 1:
        plan.link_ramp(at, hosts[rng.index(hosts.size())], DataRate::mbps(3.0),
                       DataRate::kbps(300), seconds(2), 4);
        break;
      case 2:
        plan.link_outage(at, hosts[rng.index(hosts.size())], millis(rng.uniform_int(500, 2000)));
        break;
      case 3:
        plan.burst_loss(at, 0.02 * static_cast<double>(rng.uniform_int(1, 4)), 6.0,
                        hosts[rng.index(hosts.size())]);
        break;
      default:
        plan.relay_crash(at, 0, millis(rng.uniform_int(1000, 3000)));
        break;
    }
  }
  return plan;
}

runner::ExperimentRunner::Config faulted_config() {
  runner::ExperimentRunner::Config rc;
  rc.base_seed = 137;
  rc.label = "fault-properties";
  return rc;
}

/// The faulted session task; `plan` must outlive every run of it.
runner::ExperimentRunner::Task faulted_task(const FaultPlan& plan, bool inject) {
  return [&plan, inject](runner::SessionContext& ctx) {
    core::FaultRecoveryConfig cfg;
    cfg.session_duration = seconds(16);
    cfg.outage_start = seconds(5);
    cfg.outage_duration = seconds(2);
    cfg.seed = ctx.seed;
    cfg.custom_plan = plan;
    cfg.inject = inject;
    cfg.metrics = &ctx.metrics;
    const auto r = core::run_fault_recovery_benchmark(cfg);
    ctx.sample("disconnects", static_cast<double>(r.disconnects));
    ctx.sample("reconnects", static_cast<double>(r.reconnects));
    ctx.sample("packets_lost", static_cast<double>(r.packets_lost_in_outage));
    ctx.sample("lag_spike_hwm_ms", r.lag_spike_hwm_ms);
    for (double lag : r.lags_before_ms) ctx.sample("lag_before", lag);
    for (double lag : r.lags_during_ms) ctx.sample("lag_during", lag);
    for (double lag : r.lags_after_ms) ctx.sample("lag_after", lag);
  };
}

/// One single-thread pass over two sessions.
std::string faulted_report_json(const FaultPlan& plan, bool inject) {
  runner::ExperimentRunner::Config rc = faulted_config();
  rc.threads = 1;
  const auto report = runner::ExperimentRunner{rc}.run(2, faulted_task(plan, inject));
  EXPECT_TRUE(report.failures.empty());
  return report.aggregate_json();
}

TEST(FaultProperties, RandomPlansAreThreadInvariant) {
  for (const std::uint64_t plan_seed : {1ULL, 2ULL, 3ULL}) {
    const FaultPlan plan = random_plan(plan_seed);
    ASSERT_FALSE(plan.empty());
    const vcb::CheckedRun run = vcb::run_checked(faulted_config(), 2, faulted_task(plan, true));
    EXPECT_TRUE(run.ok()) << "threads=8 drifted or a task failed, plan seed " << plan_seed
                          << "\n" << plan.to_json();
  }
}

TEST(FaultProperties, EmptyPlanReportMatchesNoPlanReport) {
  const FaultPlan empty;
  const std::string no_plan = faulted_report_json(empty, false);
  const std::string armed_empty = faulted_report_json(empty, true);
  EXPECT_EQ(armed_empty, no_plan);
}

TEST(FaultProperties, RandomPlanJsonRoundTripsExactly) {
  for (const std::uint64_t plan_seed : {5ULL, 6ULL, 7ULL, 8ULL}) {
    const FaultPlan plan = random_plan(plan_seed);
    EXPECT_EQ(FaultPlan::from_json(plan.to_json()).to_json(), plan.to_json())
        << "plan seed " << plan_seed;
  }
}

}  // namespace
}  // namespace vc::fault
