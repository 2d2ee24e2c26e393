// Integration: QoE benchmark (Section 4.3) and its bandwidth-cap
// configuration (Section 4.4) on miniature configs.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/qoe_benchmark.h"

namespace vc::core {
namespace {

constexpr std::uint64_t kQoeSeed = 23;
constexpr std::uint64_t kBwCapSeed = 5;

QoeBenchmarkConfig tiny_qoe(platform::PlatformId id, platform::MotionClass motion, int n) {
  QoeBenchmarkConfig cfg;
  cfg.platform = id;
  cfg.motion = motion;
  cfg.receiver_sites = us_qoe_receiver_sites(n);
  cfg.media_duration = seconds(10);
  cfg.content_width = 128;
  cfg.content_height = 96;
  cfg.padding = 16;
  cfg.fps = 10.0;
  cfg.metric_stride = 5;
  return cfg;
}

/// A miniature two-party call under `cap`; tests read its one receiver.
QoeBenchmarkConfig tiny_bwcap(platform::PlatformId id, DataRate cap) {
  QoeBenchmarkConfig cfg = bwcap_config(cap);
  cfg.platform = id;
  cfg.media_duration = seconds(10);
  cfg.content_width = 128;
  cfg.content_height = 96;
  cfg.padding = 16;
  cfg.fps = 10.0;
  cfg.metric_stride = 5;
  return cfg;
}

QoeReceiverResult run_tiny_bwcap(const QoeBenchmarkConfig& cfg) {
  return run_qoe_session(cfg, kBwCapSeed).receivers.front();
}

/// One session with its receivers pooled: scores over the receivers that
/// have them.
struct PooledSession {
  double upload_kbps = 0.0;
  RunningStats psnr, ssim, vifp, download_kbps, delivery_ratio;
};

PooledSession run_tiny_qoe(platform::PlatformId id, platform::MotionClass motion, int n) {
  const QoeSessionResult session = run_qoe_session(tiny_qoe(id, motion, n), kQoeSeed);
  PooledSession out;
  out.upload_kbps = session.upload_kbps;
  for (const QoeReceiverResult& rx : session.receivers) {
    out.download_kbps.add(rx.download_kbps);
    if (rx.has_delivery_ratio) out.delivery_ratio.add(rx.delivery_ratio);
    if (!rx.has_video_qoe) continue;
    out.psnr.add(rx.psnr);
    out.ssim.add(rx.ssim);
    out.vifp.add(rx.vifp);
  }
  return out;
}

TEST(QoeBenchmark, ReceiverSiteHelpers) {
  EXPECT_EQ(us_qoe_receiver_sites(5).size(), 5u);
  EXPECT_EQ(europe_qoe_receiver_sites(3).size(), 3u);
  EXPECT_THROW(us_qoe_receiver_sites(6), std::invalid_argument);
  EXPECT_THROW(us_qoe_receiver_sites(0), std::invalid_argument);
}

TEST(QoeBenchmark, LowMotionScoresWell) {
  const auto r = run_tiny_qoe(platform::PlatformId::kZoom, platform::MotionClass::kLowMotion, 1);
  ASSERT_GT(r.psnr.count(), 0u);
  EXPECT_GT(r.psnr.mean(), 26.0);
  EXPECT_GT(r.ssim.mean(), 0.8);
  EXPECT_GT(r.vifp.mean(), 0.35);
  EXPECT_GT(r.delivery_ratio.mean(), 0.9);
}

TEST(QoeBenchmark, HighMotionDegradesQoE) {
  // Finding 3: high-motion feeds lose quality at the same policy rates.
  const auto lm = run_tiny_qoe(platform::PlatformId::kMeet, platform::MotionClass::kLowMotion, 2);
  const auto hm = run_tiny_qoe(platform::PlatformId::kMeet, platform::MotionClass::kHighMotion, 2);
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

// The geometry and duration checks run before the world is built, so the
// throw names the broken rule; without them a bad feed would only fail
// mid-session, in the codec ("frame dimensions must be multiples of 8"), and
// a negative duration in a std::length_error.
TEST(QoeBenchmark, BadGeometryThrowsBeforeSimulating) {
  const QoeBenchmarkConfig base =
      tiny_qoe(platform::PlatformId::kZoom, platform::MotionClass::kLowMotion, 1);
  std::vector<std::pair<QoeBenchmarkConfig, std::string>> cases(6, {base, "padded feed"});
  cases[0].first.receiver_sites.clear();
  cases[0].second = "receiver";
  cases[1].first.padding = 3;           // 134 x 102: neither side a multiple of 8
  cases[2].first.content_height = 100;  // 160 x 132: only the height is off
  // A capped, audio-scored call at 134 x 102.
  cases[3].first = tiny_bwcap(platform::PlatformId::kZoom, DataRate::kbps(500));
  cases[3].first.padding = 3;
  cases[4] = {base, "media_duration"};
  cases[4].first.media_duration = SimDuration::zero();
  cases[5] = {base, "media_duration"};
  cases[5].first.media_duration = seconds(-3);
  for (const auto& [cfg, what] : cases) {
    try {
      run_qoe_session(cfg, kQoeSeed);
      ADD_FAILURE() << "no std::invalid_argument for " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(what), std::string::npos) << e.what();
    }
  }
}

TEST(QoeBenchmark, RatesMatchPolicyScale) {
  const auto r = run_tiny_qoe(platform::PlatformId::kWebex, platform::MotionClass::kHighMotion, 2);
  // Webex multi-party ≈ 1.9 Mbps video + audio.
  EXPECT_NEAR(r.upload_kbps, 1950.0, 450.0);
  EXPECT_NEAR(r.download_kbps.mean(), r.upload_kbps, 500.0);
}

TEST(QoeBenchmark, MeetTwoPartyBurstsAboveMultiParty) {
  const auto two = run_tiny_qoe(platform::PlatformId::kMeet, platform::MotionClass::kLowMotion, 1);
  const auto multi =
      run_tiny_qoe(platform::PlatformId::kMeet, platform::MotionClass::kLowMotion, 3);
  EXPECT_GT(two.download_kbps.mean(), 2.0 * multi.download_kbps.mean());
}

TEST(BwCapBenchmark, UnlimitedBaselineHealthy) {
  const auto r = run_tiny_bwcap(tiny_bwcap(platform::PlatformId::kZoom, DataRate::unlimited()));
  ASSERT_TRUE(r.has_video_qoe);
  EXPECT_GT(r.psnr, 24.0);
  EXPECT_GT(r.mos_lqo, 3.8);
  EXPECT_LT(r.drop_fraction, 0.01);
}

TEST(BwCapBenchmark, NonPositiveMetricStrideThrowsBeforeSimulating) {
  // A capped, audio-scored session takes the same stride check.
  QoeBenchmarkConfig cfg = bwcap_config(DataRate::kbps(500));
  cfg.metric_stride = -1;
  EXPECT_THROW(run_qoe_session(cfg, 3), std::invalid_argument);
}

TEST(BwCapBenchmark, TightCapDegradesVideo) {
  const auto base =
      run_tiny_bwcap(tiny_bwcap(platform::PlatformId::kWebex, DataRate::unlimited()));
  const auto tight = run_tiny_bwcap(tiny_bwcap(platform::PlatformId::kWebex, DataRate::kbps(500)));
  // Webex barely adapts: under a 500 Kbps cap its ~2 Mbps stream starves.
  // (A score a session could not measure stays 0.)
  EXPECT_GT(tight.drop_fraction, 0.3);
  EXPECT_LT(tight.delivery_ratio, 0.6);
  EXPECT_LT(tight.ssim, base.ssim - 0.05);
  // ...and its audio suffers too (Fig 18).
  EXPECT_LT(tight.mos_lqo, base.mos_lqo - 0.3);
}

TEST(BwCapBenchmark, ZoomAdaptsAndProtectsAudioAt500k) {
  QoeBenchmarkConfig cfg = tiny_bwcap(platform::PlatformId::kZoom, DataRate::kbps(500));
  cfg.media_duration = seconds(12);
  const auto r = run_tiny_bwcap(cfg);
  // Fig 18: Zoom audio stays near-perfect at 500 Kbps.
  EXPECT_GT(r.mos_lqo, 3.5);
  // Realized download respects the cap.
  EXPECT_LT(r.download_kbps, 560.0);
}

}  // namespace
}  // namespace vc::core
