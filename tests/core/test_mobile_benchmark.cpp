// Integration: mobile resource benchmarks (Section 5, Fig 19, Table 4) on
// miniature configs.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/mobile_benchmark.h"

namespace vc::core {
namespace {

constexpr std::uint64_t kMobileSeed = 31;
constexpr std::uint64_t kScaleSeed = 37;

MobileSessionResult tiny(platform::PlatformId id, mobile::MobileScenario s) {
  MobileBenchmarkConfig cfg;
  cfg.platform = id;
  cfg.scenario = s;
  cfg.duration = seconds(30);
  return run_mobile_session(cfg, kMobileSeed);
}

TEST(MobileBenchmark, MeetIsBandwidthHungriest) {
  // Fig 19b / Finding 5: Meet downloads the most, Zoom the least.
  const auto zoom = tiny(platform::PlatformId::kZoom, mobile::MobileScenario::kHM);
  const auto meet = tiny(platform::PlatformId::kMeet, mobile::MobileScenario::kHM);
  EXPECT_GT(meet.s10_download_kbps, 1.8 * zoom.s10_download_kbps);
  EXPECT_GT(meet.s10_download_kbps, 1500.0);
  EXPECT_NEAR(zoom.s10_download_kbps, 800.0, 300.0);
}

TEST(MobileBenchmark, WebexAdaptsToLowEndDevice) {
  // Fig 19b: only Webex serves the J3 a reduced rate.
  const auto webex = tiny(platform::PlatformId::kWebex, mobile::MobileScenario::kHM);
  EXPECT_LT(webex.j3_download_kbps, 0.65 * webex.s10_download_kbps);
  const auto meet = tiny(platform::PlatformId::kMeet, mobile::MobileScenario::kHM);
  EXPECT_NEAR(meet.j3_download_kbps, meet.s10_download_kbps, 0.25 * meet.s10_download_kbps);
}

TEST(MobileBenchmark, ZoomGalleryHalvesRate) {
  const auto full = tiny(platform::PlatformId::kZoom, mobile::MobileScenario::kLM);
  const auto gallery = tiny(platform::PlatformId::kZoom, mobile::MobileScenario::kLMView);
  EXPECT_LT(gallery.s10_download_kbps, 0.7 * full.s10_download_kbps);
}

TEST(MobileBenchmark, ScreenOffLeavesOnlyAudio) {
  const auto off = tiny(platform::PlatformId::kZoom, mobile::MobileScenario::kLMOff);
  // Fig 19b: 100–200 Kbps for audio/control only.
  EXPECT_LT(off.s10_download_kbps, 250.0);
  // And the battery drain roughly halves vs screen-on video.
  const auto lm = tiny(platform::PlatformId::kZoom, mobile::MobileScenario::kLM);
  EXPECT_LT(off.j3_battery_pct_per_hour, 0.7 * lm.j3_battery_pct_per_hour);
}

TEST(MobileBenchmark, CpuShapesPerPlatform) {
  const auto zoom = tiny(platform::PlatformId::kZoom, mobile::MobileScenario::kHM);
  const auto meet = tiny(platform::PlatformId::kMeet, mobile::MobileScenario::kHM);
  ASSERT_FALSE(zoom.s10_cpu.empty());
  // Meet costs ~50% more CPU on the high-end device.
  EXPECT_GT(median(meet.s10_cpu), median(zoom.s10_cpu) + 30.0);
  // On the J3 everyone saturates near two cores.
  EXPECT_NEAR(median(zoom.j3_cpu), 200.0, 50.0);
  EXPECT_NEAR(median(meet.j3_cpu), 210.0, 50.0);
}

TEST(MobileBenchmark, BatteryInPaperBallpark) {
  const auto hm = tiny(platform::PlatformId::kZoom, mobile::MobileScenario::kHM);
  EXPECT_GT(hm.j3_battery_pct_per_hour, 20.0);
  EXPECT_LT(hm.j3_battery_pct_per_hour, 50.0);
}

ScaleSessionResult scale(platform::PlatformId id, int n, platform::ViewMode view) {
  ScaleBenchmarkConfig cfg;
  cfg.platform = id;
  cfg.n_total = n;
  cfg.phone_view = view;
  cfg.duration = seconds(25);
  return run_scale_session(cfg, kScaleSeed);
}

TEST(ScaleBenchmark, ZoomFullScreenFlatWithN) {
  // Table 4: Zoom full screen barely grows from N=3 to N=11.
  const auto n3 = scale(platform::PlatformId::kZoom, 3, platform::ViewMode::kFullScreen);
  const auto n11 = scale(platform::PlatformId::kZoom, 11, platform::ViewMode::kFullScreen);
  EXPECT_LT(n11.s10_rate_mbps, 1.45 * n3.s10_rate_mbps);
  EXPECT_GT(n11.s10_rate_mbps, 0.95 * n3.s10_rate_mbps);
}

TEST(ScaleBenchmark, ZoomGalleryPlateausAtFourTiles) {
  // Table 4: gallery rate roughly doubles 3→6, then flattens 6→11.
  const auto n3 = scale(platform::PlatformId::kZoom, 3, platform::ViewMode::kGallery);
  const auto n6 = scale(platform::PlatformId::kZoom, 6, platform::ViewMode::kGallery);
  const auto n11 = scale(platform::PlatformId::kZoom, 11, platform::ViewMode::kGallery);
  EXPECT_GT(n6.s10_rate_mbps, 1.5 * n3.s10_rate_mbps);
  EXPECT_NEAR(n11.s10_rate_mbps, n6.s10_rate_mbps, 0.3 * n6.s10_rate_mbps);
}

TEST(ScaleBenchmark, WebexGalleryRateDropsWithN) {
  // Table 4's counter-intuitive Webex result: 0.57 → 0.43 Mbps.
  const auto n3 = scale(platform::PlatformId::kWebex, 3, platform::ViewMode::kGallery);
  const auto n6 = scale(platform::PlatformId::kWebex, 6, platform::ViewMode::kGallery);
  EXPECT_LT(n6.s10_rate_mbps, n3.s10_rate_mbps);
}

TEST(ScaleBenchmark, MeetGrowsWithPreviewsThenCaps) {
  const auto n3 = scale(platform::PlatformId::kMeet, 3, platform::ViewMode::kFullScreen);
  const auto n6 = scale(platform::PlatformId::kMeet, 6, platform::ViewMode::kFullScreen);
  const auto n11 = scale(platform::PlatformId::kMeet, 11, platform::ViewMode::kFullScreen);
  EXPECT_GT(n6.s10_rate_mbps, n3.s10_rate_mbps);
  EXPECT_NEAR(n11.s10_rate_mbps, n6.s10_rate_mbps, 0.15 * n6.s10_rate_mbps);
  EXPECT_GT(n3.s10_rate_mbps, 1.4);  // high simulcast layer (±Meet's own
  // across-session rate variability, the largest of the three platforms)
}

}  // namespace
}  // namespace vc::core
