// Determinism contract for the header-free QoE inference pipeline: a faulted
// inference session — scripted receiver-link outage, shaped last mile, live
// capture, QoeInferencer, truth join — must produce byte-identical runner
// aggregate reports at every thread count. The estimator itself is pure, so
// any drift here indicts the session world (capture order, fault arming,
// shaper state), not the analyzer.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "bench/bench_util.h"
#include "core/qoe_infer_benchmark.h"
#include "runner/experiment_runner.h"

namespace vc {
namespace {

constexpr std::size_t kTasks = 3;

/// FNV-1a folded to 32 bits so the digest survives the samples' double
/// representation exactly (doubles hold 32-bit integers losslessly).
double report_digest(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return static_cast<double>((h >> 32) ^ (h & 0xFFFFFFFFULL));
}

void infer_task(runner::SessionContext& ctx) {
  core::QoeInferBenchmarkConfig cfg;
  cfg.platform = vc::platform::PlatformId::kZoom;
  cfg.media_duration = seconds(14);
  cfg.outages = {{seconds(5), seconds(2)}};  // FaultPlan active
  cfg.shaper = core::InferShaperProfile::kDsl;
  cfg.metrics = &ctx.metrics;
  const auto r = core::run_qoe_inference_session(cfg, ctx.seed);
  // The scripted outage must actually register end to end.
  EXPECT_EQ(r.inferred_freezes, 1) << "task " << ctx.task_index;
  EXPECT_DOUBLE_EQ(r.freeze_recall, 1.0);
  ctx.sample("inferred_fps", r.inferred_fps);
  ctx.sample("truth_fps", r.truth_fps);
  ctx.sample("tier_accuracy", r.tier_accuracy);
  ctx.sample("fps_abs_err", r.fps_abs_err);
  // The full JSON text participates in the identity check, not just
  // the scalars — a formatting drift is a determinism bug too.
  ctx.sample("report_digest", report_digest(r.report_json));
}

TEST(InferDeterminism, IdenticalAcrossThreads) {
  runner::ExperimentRunner::Config rc;
  rc.base_seed = 47;
  rc.label = "infer-determinism";
  const vcb::CheckedRun run = vcb::run_checked(rc, kTasks, infer_task);
  ASSERT_TRUE(run.ok());
  EXPECT_NE(run.serial.aggregate_json().find("report_digest"), std::string::npos);
}

}  // namespace
}  // namespace vc
