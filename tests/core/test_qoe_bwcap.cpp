// Integration: QoE benchmark (Section 4.3) and bandwidth-cap benchmark
// (Section 4.4) on miniature configs.
#include <gtest/gtest.h>

#include "core/bwcap_benchmark.h"
#include "core/qoe_benchmark.h"

namespace vc::core {
namespace {

QoeBenchmarkConfig tiny_qoe(platform::PlatformId id, platform::MotionClass motion, int n) {
  QoeBenchmarkConfig cfg;
  cfg.platform = id;
  cfg.motion = motion;
  cfg.receiver_sites = us_qoe_receiver_sites(n);
  cfg.sessions = 1;
  cfg.media_duration = seconds(10);
  cfg.content_width = 128;
  cfg.content_height = 96;
  cfg.padding = 16;
  cfg.fps = 10.0;
  cfg.metric_stride = 5;
  cfg.seed = 23;
  return cfg;
}

TEST(QoeBenchmark, ReceiverSiteHelpers) {
  EXPECT_EQ(us_qoe_receiver_sites(5).size(), 5u);
  EXPECT_EQ(europe_qoe_receiver_sites(3).size(), 3u);
  EXPECT_THROW(us_qoe_receiver_sites(6), std::invalid_argument);
  EXPECT_THROW(us_qoe_receiver_sites(0), std::invalid_argument);
}

TEST(QoeBenchmark, LowMotionScoresWell) {
  const auto r =
      run_qoe_benchmark(tiny_qoe(platform::PlatformId::kZoom, platform::MotionClass::kLowMotion, 1));
  ASSERT_GT(r.psnr.count(), 0u);
  EXPECT_GT(r.psnr.mean(), 26.0);
  EXPECT_GT(r.ssim.mean(), 0.8);
  EXPECT_GT(r.vifp.mean(), 0.35);
  EXPECT_GT(r.delivery_ratio.mean(), 0.9);
}

TEST(QoeBenchmark, HighMotionDegradesQoE) {
  // Finding 3: high-motion feeds lose quality at the same policy rates.
  const auto lm =
      run_qoe_benchmark(tiny_qoe(platform::PlatformId::kMeet, platform::MotionClass::kLowMotion, 2));
  const auto hm = run_qoe_benchmark(
      tiny_qoe(platform::PlatformId::kMeet, platform::MotionClass::kHighMotion, 2));
  ASSERT_GT(lm.ssim.count(), 0u);
  ASSERT_GT(hm.ssim.count(), 0u);
  EXPECT_GT(lm.ssim.mean(), hm.ssim.mean());
  EXPECT_GT(lm.psnr.mean(), hm.psnr.mean());
}

TEST(QoeBenchmark, NonPositiveMetricStrideThrowsBeforeSimulating) {
  // A stride below 1 used to spin the scoring loop forever.
  QoeBenchmarkConfig cfg =
      tiny_qoe(platform::PlatformId::kZoom, platform::MotionClass::kLowMotion, 1);
  cfg.metric_stride = 0;
  EXPECT_THROW(run_qoe_session(cfg, 3), std::invalid_argument);
}

TEST(QoeBenchmark, RatesMatchPolicyScale) {
  const auto r = run_qoe_benchmark(
      tiny_qoe(platform::PlatformId::kWebex, platform::MotionClass::kHighMotion, 2));
  // Webex multi-party ≈ 1.9 Mbps video + audio.
  EXPECT_NEAR(r.upload_kbps.mean(), 1950.0, 450.0);
  EXPECT_NEAR(r.download_kbps.mean(), r.upload_kbps.mean(), 500.0);
}

TEST(QoeBenchmark, MeetTwoPartyBurstsAboveMultiParty) {
  const auto two =
      run_qoe_benchmark(tiny_qoe(platform::PlatformId::kMeet, platform::MotionClass::kLowMotion, 1));
  const auto multi =
      run_qoe_benchmark(tiny_qoe(platform::PlatformId::kMeet, platform::MotionClass::kLowMotion, 3));
  EXPECT_GT(two.download_kbps.mean(), 2.0 * multi.download_kbps.mean());
}

TEST(BwCapBenchmark, UnlimitedBaselineHealthy) {
  BwCapBenchmarkConfig cfg;
  cfg.platform = platform::PlatformId::kZoom;
  cfg.sessions = 1;
  cfg.media_duration = seconds(10);
  cfg.content_width = 128;
  cfg.content_height = 96;
  cfg.padding = 16;
  cfg.fps = 10.0;
  cfg.metric_stride = 5;
  const auto r = run_bwcap_benchmark(cfg);
  ASSERT_GT(r.psnr.count(), 0u);
  EXPECT_GT(r.psnr.mean(), 24.0);
  EXPECT_GT(r.mos_lqo.mean(), 3.8);
  EXPECT_LT(r.drop_fraction.mean(), 0.01);
}

TEST(BwCapBenchmark, NonPositiveMetricStrideThrowsBeforeSimulating) {
  BwCapBenchmarkConfig cfg;
  cfg.metric_stride = -1;
  EXPECT_THROW(run_bwcap_session(cfg, 3), std::invalid_argument);
}

TEST(BwCapBenchmark, TightCapDegradesVideo) {
  BwCapBenchmarkConfig cfg;
  cfg.platform = platform::PlatformId::kWebex;
  cfg.sessions = 1;
  cfg.media_duration = seconds(10);
  cfg.content_width = 128;
  cfg.content_height = 96;
  cfg.padding = 16;
  cfg.fps = 10.0;
  cfg.metric_stride = 5;
  BwCapBenchmarkConfig capped = cfg;
  capped.cap = DataRate::kbps(500);
  const auto base = run_bwcap_benchmark(cfg);
  const auto tight = run_bwcap_benchmark(capped);
  // Webex barely adapts: under a 500 Kbps cap its ~2 Mbps stream starves.
  EXPECT_GT(tight.drop_fraction.mean(), 0.3);
  EXPECT_LT(tight.delivery_ratio.mean(), 0.6);
  EXPECT_LT(tight.ssim.mean(), base.ssim.mean() - 0.05);
  // ...and its audio suffers too (Fig 18).
  EXPECT_LT(tight.mos_lqo.mean(), base.mos_lqo.mean() - 0.3);
}

TEST(BwCapBenchmark, ZoomAdaptsAndProtectsAudioAt500k) {
  BwCapBenchmarkConfig cfg;
  cfg.platform = platform::PlatformId::kZoom;
  cfg.cap = DataRate::kbps(500);
  cfg.sessions = 1;
  cfg.media_duration = seconds(12);
  cfg.content_width = 128;
  cfg.content_height = 96;
  cfg.padding = 16;
  cfg.fps = 10.0;
  cfg.metric_stride = 5;
  const auto r = run_bwcap_benchmark(cfg);
  // Fig 18: Zoom audio stays near-perfect at 500 Kbps.
  EXPECT_GT(r.mos_lqo.mean(), 3.5);
  // Realized download respects the cap.
  EXPECT_LT(r.download_kbps.mean(), 560.0);
}

}  // namespace
}  // namespace vc::core
