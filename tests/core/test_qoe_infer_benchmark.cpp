// End-to-end checks of the header-free inference session: the estimator only
// ever sees the receiver's capture, yet its accuracy against the session's
// own ground truth must clear the same bars bench_qoe_inference gates in CI.
#include <gtest/gtest.h>

#include "core/qoe_infer_benchmark.h"

namespace vc::core {
namespace {

QoeInferBenchmarkConfig base_config() {
  QoeInferBenchmarkConfig cfg;
  cfg.platform = platform::PlatformId::kZoom;
  cfg.media_duration = seconds(16);
  return cfg;
}

TEST(QoeInferSession, CleanSessionRecoversFrameRateAndTier) {
  const auto r = run_qoe_inference_session(base_config(), 7);
  // Truth ~10 fps delivered; the estimate must land within the CI gate.
  EXPECT_GT(r.truth_fps, 8.0);
  EXPECT_LE(r.fps_abs_err, 2.0);
  // No scripted outages: by convention recall is 1, and a clean unshaped
  // session should not hallucinate freezes either.
  EXPECT_EQ(r.truth_freezes, 0);
  EXPECT_DOUBLE_EQ(r.freeze_recall, 1.0);
  EXPECT_EQ(r.inferred_freezes, 0);
  // Tier timeline: most comparable windows must match the sender's truth.
  EXPECT_GT(r.tier_windows, 5);
  EXPECT_GE(r.tier_accuracy, 0.8);
  EXPECT_FALSE(r.report_json.empty());
}

TEST(QoeInferSession, ScriptedOutageIsFoundAsFreeze) {
  QoeInferBenchmarkConfig cfg = base_config();
  cfg.outages = {{seconds(5), seconds(2)}};
  const auto r = run_qoe_inference_session(cfg, 11);
  EXPECT_EQ(r.truth_freezes, 1);
  EXPECT_GE(r.inferred_freezes, 1);
  EXPECT_DOUBLE_EQ(r.freeze_recall, 1.0);
  EXPECT_DOUBLE_EQ(r.freeze_precision, 1.0);
  // The outage suppresses delivery, so truth fps drops with it — and the
  // estimate must track the *delivered* rate, not the nominal feed rate.
  EXPECT_LE(r.fps_abs_err, 2.0);
}

TEST(QoeInferSession, TwoOutagesTwoFreezes) {
  QoeInferBenchmarkConfig cfg = base_config();
  cfg.media_duration = seconds(20);
  cfg.outages = {{seconds(4), seconds(2)}, {seconds(12), seconds(3)}};
  const auto r = run_qoe_inference_session(cfg, 3);
  EXPECT_EQ(r.truth_freezes, 2);
  EXPECT_DOUBLE_EQ(r.freeze_recall, 1.0);
  EXPECT_DOUBLE_EQ(r.freeze_precision, 1.0);
}

TEST(QoeInferSession, AllPlatformsClearTheAccuracyGates) {
  for (const auto id : {platform::PlatformId::kZoom, platform::PlatformId::kWebex,
                        platform::PlatformId::kMeet}) {
    QoeInferBenchmarkConfig cfg = base_config();
    cfg.platform = id;
    cfg.outages = {{seconds(6), seconds(2)}};
    const auto r = run_qoe_inference_session(cfg, 19);
    EXPECT_LE(r.fps_abs_err, 2.0) << "platform " << static_cast<int>(id);
    EXPECT_GE(r.freeze_recall, 0.9) << "platform " << static_cast<int>(id);
    EXPECT_GE(r.freeze_precision, 0.9) << "platform " << static_cast<int>(id);
  }
}

TEST(QoeInferSession, ShapedProfileStillInfers) {
  QoeInferBenchmarkConfig cfg = base_config();
  cfg.shaper = InferShaperProfile::kDsl;
  cfg.outages = {{seconds(5), seconds(2)}};
  const auto r = run_qoe_inference_session(cfg, 23);
  EXPECT_LE(r.fps_abs_err, 2.0);
  EXPECT_GE(r.freeze_recall, 0.9);
  EXPECT_GE(r.freeze_precision, 0.9);
}

TEST(QoeInferSession, DeterministicAcrossReplicas) {
  QoeInferBenchmarkConfig cfg = base_config();
  cfg.outages = {{seconds(5), seconds(2)}};
  const auto a = run_qoe_inference_session(cfg, 31);
  const auto b = run_qoe_inference_session(cfg, 31);
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_DOUBLE_EQ(a.inferred_fps, b.inferred_fps);
  EXPECT_DOUBLE_EQ(a.tier_accuracy, b.tier_accuracy);
  EXPECT_EQ(a.inferred_frames, b.inferred_frames);
}

TEST(QoeInferSession, RegistryRecordsNetworkRelayAndCodec) {
  // Zoom's two-party calls go peer to peer; Webex always relays.
  QoeInferBenchmarkConfig cfg = base_config();
  cfg.platform = platform::PlatformId::kWebex;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  run_qoe_inference_session(cfg, 7);
  EXPECT_GT(metrics.counter("net.loop.events_executed").value(), 0);
  EXPECT_GT(metrics.counter("net.link.packets_sent").value(), 0);
  EXPECT_GT(metrics.counter("relay.media_in").value(), 0);
  EXPECT_GT(metrics.counter("codec.video.frames_encoded").value(), 0);
}

TEST(QoeInferSession, RejectsOutageOutsideMediaWindow) {
  QoeInferBenchmarkConfig cfg = base_config();
  cfg.outages = {{seconds(15), seconds(5)}};  // runs past media end
  EXPECT_THROW(run_qoe_inference_session(cfg, 1), std::invalid_argument);
  cfg.outages = {{seconds(2), SimDuration::zero()}};
  EXPECT_THROW(run_qoe_inference_session(cfg, 1), std::invalid_argument);
}

}  // namespace
}  // namespace vc::core
