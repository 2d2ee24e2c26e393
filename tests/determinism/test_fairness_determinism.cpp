// Acceptance test for the fairness benchmark's determinism contract: a
// competing-flow contention scene with client ABR *active* — mixed platforms,
// mixed adapters, one shared bottleneck shaper — must emit byte-identical
// runner aggregate reports at every thread count. The adapters are RNG-free
// state machines and the feedback payloads ride the existing control-report
// packets, so an adapting run sits inside the same contract as a plain one.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "bench/bench_util.h"
#include "core/fairness_benchmark.h"
#include "runner/experiment_runner.h"

namespace vc {
namespace {

constexpr std::size_t kTasks = 2;

void fairness_task(runner::SessionContext& ctx) {
  core::FairnessBenchmarkConfig cfg;
  cfg.flows = core::default_fairness_flows(3);  // one of each adapter
  cfg.bottleneck = DataRate::kbps(1800);
  cfg.media_duration = seconds(8);
  const auto r = core::run_fairness_session(cfg, ctx.seed);
  ASSERT_EQ(r.flows.size(), 3u);
  ctx.sample("jain", r.jain_index);
  ctx.sample("utilization", r.utilization);
  ctx.sample("queue_ms", r.queue_delay_mean_ms);
  ctx.sample("drop", r.drop_fraction);
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const std::string fk = "flow" + std::to_string(i);
    ctx.sample(fk + ".kbps", r.flows[i].achieved_kbps);
    ctx.sample(fk + ".decisions", static_cast<double>(r.flows[i].abr_decisions));
    ctx.sample(fk + ".switches", static_cast<double>(r.flows[i].abr_tier_switches));
  }
}

TEST(FairnessDeterminism, AdaptingContentionSceneIdenticalAcrossThreads) {
  runner::ExperimentRunner::Config rc;
  rc.base_seed = 929;
  rc.label = "fairness-determinism";
  const vcb::CheckedRun run = vcb::run_checked(rc, kTasks, fairness_task);
  ASSERT_TRUE(run.ok());
  // ABR actually engaged: the adapters made decisions in every task.
  const std::string base = run.serial.aggregate_json();
  const std::size_t key = base.find("flow0.decisions");
  ASSERT_NE(key, std::string::npos);
  EXPECT_EQ(base.substr(key, 40).find("\"mean\":0,"), std::string::npos)
      << "adapters never received feedback — the contention scene is miswired";
}

}  // namespace
}  // namespace vc
