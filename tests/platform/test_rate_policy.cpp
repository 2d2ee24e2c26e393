#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "platform/rate_policy.h"

namespace vc::platform {
namespace {

TEST(PlatformNames, AllThree) {
  EXPECT_EQ(platform_name(PlatformId::kZoom), "Zoom");
  EXPECT_EQ(platform_name(PlatformId::kWebex), "Webex");
  EXPECT_EQ(platform_name(PlatformId::kMeet), "Meet");
  EXPECT_EQ(platform_from_name("zoom"), PlatformId::kZoom);
  EXPECT_EQ(platform_from_name("webex"), PlatformId::kWebex);
  EXPECT_EQ(platform_from_name("meet"), PlatformId::kMeet);
  for (const char* bad : {"zooom", "Zoom", "zoo", "", "meet "}) {
    EXPECT_EQ(platform_from_name(bad), std::nullopt) << bad;
  }
}

TEST(RateProfile, PaperAnchors) {
  // Webex: highest multi-party rate, low-motion halves it, no fluctuation.
  const auto& webex = rate_profile(PlatformId::kWebex);
  EXPECT_GT(webex.video_multi_party, rate_profile(PlatformId::kZoom).video_multi_party);
  EXPECT_GT(webex.video_multi_party, rate_profile(PlatformId::kMeet).video_multi_party);
  EXPECT_LT(webex.low_motion_factor, 0.6);
  EXPECT_LT(webex.session_sigma, 0.02);

  // Meet: two-party burst ≫ multi-party; most dynamic across sessions.
  const auto& meet = rate_profile(PlatformId::kMeet);
  EXPECT_GT(meet.video_two_party.as_mbps(), 2.5 * meet.video_multi_party.as_mbps());
  EXPECT_GT(meet.session_sigma, rate_profile(PlatformId::kZoom).session_sigma * 2);

  // Zoom: P2P slightly above relay rate; smallest LM/HM gap.
  const auto& zoom = rate_profile(PlatformId::kZoom);
  EXPECT_GT(zoom.video_two_party, zoom.video_multi_party);
  EXPECT_GT(zoom.low_motion_factor, 0.9);
}

TEST(RateProfile, AdaptationAgility) {
  // Fig 17-18 mechanism: Zoom/Meet back off under loss; Webex barely does.
  EXPECT_LT(rate_profile(PlatformId::kZoom).loss_backoff, 0.9);
  EXPECT_LT(rate_profile(PlatformId::kMeet).loss_backoff, 0.9);
  EXPECT_GT(rate_profile(PlatformId::kWebex).loss_backoff, 0.9);
  // Meet adapts to the lowest floor (most graceful degradation).
  EXPECT_LT(rate_profile(PlatformId::kMeet).min_video_rate,
            rate_profile(PlatformId::kZoom).min_video_rate);
  EXPECT_GT(rate_profile(PlatformId::kWebex).min_video_rate, DataRate::mbps(1.0));
}

TEST(SessionVideoRate, TwoPartyVsMulti) {
  Rng rng{1};
  const auto two = session_video_rate(PlatformId::kMeet, 2, MotionClass::kHighMotion, rng);
  const auto multi = session_video_rate(PlatformId::kMeet, 5, MotionClass::kHighMotion, rng);
  EXPECT_GT(two.as_mbps(), 1.2);
  EXPECT_LT(multi.as_mbps(), 1.0);
  EXPECT_THROW(session_video_rate(PlatformId::kMeet, 1, MotionClass::kHighMotion, rng),
               std::invalid_argument);
}

TEST(SessionVideoRate, LowMotionCheaper) {
  Rng rng{2};
  const auto lm = session_video_rate(PlatformId::kWebex, 4, MotionClass::kLowMotion, rng);
  const auto hm = session_video_rate(PlatformId::kWebex, 4, MotionClass::kHighMotion, rng);
  EXPECT_LT(lm.as_kbps(), hm.as_kbps() * 0.6);
}

TEST(SessionVideoRate, WebexNearlyConstantMeetDynamic) {
  Rng rng{3};
  RunningStats webex;
  RunningStats meet;
  for (int i = 0; i < 200; ++i) {
    webex.add(session_video_rate(PlatformId::kWebex, 4, MotionClass::kHighMotion, rng).as_kbps());
    meet.add(session_video_rate(PlatformId::kMeet, 4, MotionClass::kHighMotion, rng).as_kbps());
  }
  EXPECT_LT(webex.stddev() / webex.mean(), 0.02);
  EXPECT_GT(meet.stddev() / meet.mean(), 0.10);
}

std::vector<SenderInfo> senders(int n) {
  std::vector<SenderInfo> out;
  for (int i = 1; i <= n; ++i) {
    out.push_back(SenderInfo{static_cast<ParticipantId>(i), DeviceClass::kCloudVm});
  }
  return out;
}

TEST(Subscriptions, AudioOnlyGetsNothing) {
  EXPECT_TRUE(subscriptions(PlatformId::kZoom, ViewMode::kAudioOnly, DeviceClass::kCloudVm,
                            senders(3))
                  .empty());
}

TEST(Subscriptions, FullScreenMainStreamFirstSender) {
  const auto subs =
      subscriptions(PlatformId::kWebex, ViewMode::kFullScreen, DeviceClass::kCloudVm, senders(3));
  ASSERT_FALSE(subs.empty());
  EXPECT_EQ(subs[0].origin, 1u);
  EXPECT_DOUBLE_EQ(subs[0].scale, 1.0);
}

TEST(Subscriptions, ZoomFullScreenBuffersBackground) {
  // Table 4: Zoom keeps a trickle of undisplayed streams in full screen.
  const auto subs =
      subscriptions(PlatformId::kZoom, ViewMode::kFullScreen, DeviceClass::kCloudVm, senders(5));
  ASSERT_EQ(subs.size(), 5u);
  for (std::size_t i = 1; i < subs.size(); ++i) {
    EXPECT_GT(subs[i].scale, 0.0);
    EXPECT_LT(subs[i].scale, 0.1);
  }
}

TEST(Subscriptions, MeetFullScreenHasPreviews) {
  const auto subs =
      subscriptions(PlatformId::kMeet, ViewMode::kFullScreen, DeviceClass::kCloudVm, senders(6));
  // Main + up to 3 previews (max 4 tiles visible).
  ASSERT_EQ(subs.size(), 4u);
  EXPECT_DOUBLE_EQ(subs[0].scale, 1.0);
  for (std::size_t i = 1; i < subs.size(); ++i) EXPECT_NEAR(subs[i].scale, 0.035, 1e-9);
}

TEST(Subscriptions, MeetGalleryIsNoop) {
  // Meet has no gallery (footnote 6): the request changes nothing.
  const auto gal =
      subscriptions(PlatformId::kMeet, ViewMode::kGallery, DeviceClass::kCloudVm, senders(6));
  const auto full =
      subscriptions(PlatformId::kMeet, ViewMode::kFullScreen, DeviceClass::kCloudVm, senders(6));
  ASSERT_EQ(gal.size(), full.size());
  for (std::size_t i = 0; i < gal.size(); ++i) {
    EXPECT_EQ(gal[i].origin, full[i].origin);
    EXPECT_DOUBLE_EQ(gal[i].scale, full[i].scale);
  }
}

TEST(Subscriptions, ZoomGalleryCapsAtFourTiles) {
  const auto subs =
      subscriptions(PlatformId::kZoom, ViewMode::kGallery, DeviceClass::kCloudVm, senders(9));
  EXPECT_EQ(subs.size(), 4u);
}

TEST(Subscriptions, ZoomGalleryTotalDoublesFromOneToFourTiles) {
  // Table 4 shape: 1 tile ≈ 0.45x, 4 tiles ≈ 0.9x total (not 1.8x).
  auto total = [](int n) {
    double acc = 0;
    for (const auto& s :
         subscriptions(PlatformId::kZoom, ViewMode::kGallery, DeviceClass::kCloudVm, senders(n))) {
      acc += s.scale;
    }
    return acc;
  };
  EXPECT_NEAR(total(4) / total(1), 2.0, 0.1);
}

TEST(Subscriptions, WebexGalleryBudgetShrinksWithTiles) {
  // The paper's counter-intuitive observation: more participants in gallery
  // → *lower* total rate on Webex.
  auto total = [](int n) {
    double acc = 0;
    for (const auto& s :
         subscriptions(PlatformId::kWebex, ViewMode::kGallery, DeviceClass::kCloudVm, senders(n))) {
      acc += s.scale;
    }
    return acc;
  };
  EXPECT_LT(total(4), total(1));
}

TEST(Subscriptions, WebexServesLowEndDevicesLess) {
  const auto s10 =
      subscriptions(PlatformId::kWebex, ViewMode::kFullScreen, DeviceClass::kMobileHighEnd,
                    senders(2));
  const auto j3 = subscriptions(PlatformId::kWebex, ViewMode::kFullScreen,
                                DeviceClass::kMobileLowEnd, senders(2));
  EXPECT_NEAR(j3[0].scale, 0.5 * s10[0].scale, 1e-9);
}

TEST(Subscriptions, ZoomMeetIgnoreDeviceClass) {
  for (const auto id : {PlatformId::kZoom, PlatformId::kMeet}) {
    const auto high =
        subscriptions(id, ViewMode::kFullScreen, DeviceClass::kMobileHighEnd, senders(2));
    const auto low =
        subscriptions(id, ViewMode::kFullScreen, DeviceClass::kMobileLowEnd, senders(2));
    EXPECT_DOUBLE_EQ(high[0].scale, low[0].scale);
  }
}

TEST(Subscriptions, WebexGalleryAbandonsBudgetForPhoneCameras) {
  // Fig 19b (LM-Video-View): with a phone camera in the gallery, Webex
  // serves tiles at half rate instead of its shrinking budget — total rate
  // more than doubles vs the VM-only gallery.
  auto vm_only = senders(2);
  auto with_phone = vm_only;
  with_phone[1].device = DeviceClass::kMobileHighEnd;
  auto total = [](const std::vector<StreamSubscription>& subs) {
    double acc = 0;
    for (const auto& s : subs) acc += s.scale;
    return acc;
  };
  const double budget = total(
      subscriptions(PlatformId::kWebex, ViewMode::kGallery, DeviceClass::kCloudVm, vm_only));
  const double camera = total(
      subscriptions(PlatformId::kWebex, ViewMode::kGallery, DeviceClass::kCloudVm, with_phone));
  EXPECT_GT(camera, 2.0 * budget);
}

TEST(Subscriptions, NoSendersNoSubscriptions) {
  EXPECT_TRUE(
      subscriptions(PlatformId::kZoom, ViewMode::kFullScreen, DeviceClass::kCloudVm, {}).empty());
}

}  // namespace
}  // namespace vc::platform
