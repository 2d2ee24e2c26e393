#include <gtest/gtest.h>

#include <utility>

#include "media/feeds.h"
#include "media/frame.h"

namespace vc::media {
namespace {

TEST(Frame, ConstructAndAccess) {
  Frame f{8, 4, 7};
  EXPECT_EQ(f.width(), 8);
  EXPECT_EQ(f.height(), 4);
  EXPECT_EQ(f.at(3, 2), 7);
  f.set(3, 2, 200);
  EXPECT_EQ(f.at(3, 2), 200);
  EXPECT_THROW((Frame{0, 4}), std::invalid_argument);
}

TEST(Frame, RejectsNegativeDimensionsBeforeAllocating) {
  // Cast to size_t, these sizes would request 2^40 bytes or more before
  // any dimension check ran. ({-65536, -65536} would wrap to 4 GiB and be
  // filled, so a regression would not fail fast on it: it is left out.)
  EXPECT_THROW((Frame{-(1 << 20), -(1 << 20)}), std::invalid_argument);
  EXPECT_THROW((Frame{-1, 4}), std::invalid_argument);
}

TEST(Frame, ClampedAccess) {
  Frame f{4, 4, 0};
  f.set(0, 0, 10);
  f.set(3, 3, 20);
  EXPECT_EQ(f.at_clamped(-5, -5), 10);
  EXPECT_EQ(f.at_clamped(100, 100), 20);
}

TEST(Frame, Crop) {
  Frame f{10, 10};
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) f.set(x, y, static_cast<std::uint8_t>(10 * y + x));
  }
  const Frame c = f.crop(2, 3, 4, 5);
  EXPECT_EQ(c.width(), 4);
  EXPECT_EQ(c.height(), 5);
  EXPECT_EQ(c.at(0, 0), 32);
  EXPECT_EQ(c.at(3, 4), 75);
  EXPECT_THROW(f.crop(8, 8, 4, 4), std::out_of_range);
}

TEST(Frame, ResizeIdentity) {
  Frame f{16, 12, 99};
  EXPECT_EQ(f.resized(16, 12), f);
}

TEST(Frame, ResizePreservesUniform) {
  Frame f{16, 16, 130};
  const Frame r = f.resized(7, 5);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 7; ++x) EXPECT_EQ(r.at(x, y), 130);
  }
}

TEST(Frame, ResizeDownThenUpRoughlyPreserves) {
  Frame f{32, 32};
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) f.set(x, y, static_cast<std::uint8_t>(x * 8));
  }
  const Frame round = f.resized(16, 16).resized(32, 32);
  EXPECT_LT(f.mse(round), 40.0);  // smooth gradient survives
}

TEST(Frame, Mse) {
  Frame a{4, 4, 100};
  Frame b{4, 4, 110};
  EXPECT_DOUBLE_EQ(a.mse(a), 0.0);
  EXPECT_DOUBLE_EQ(a.mse(b), 100.0);
  Frame c{5, 4};
  EXPECT_THROW(a.mse(c), std::invalid_argument);
}

TEST(Feeds, DeterministicReplay) {
  const TalkingHeadFeed feed{{160, 120, 10.0, 99}};
  EXPECT_EQ(feed.frame_at(7), feed.frame_at(7));
  const TourGuideFeed tour{{160, 120, 10.0, 99}};
  EXPECT_EQ(tour.frame_at(13), tour.frame_at(13));
}

TEST(Feeds, SeedChangesContent) {
  const TalkingHeadFeed a{{160, 120, 10.0, 1}};
  const TalkingHeadFeed b{{160, 120, 10.0, 2}};
  EXPECT_NE(a.frame_at(0), b.frame_at(0));
}

TEST(Feeds, HighMotionExceedsLowMotion) {
  const TalkingHeadFeed low{{160, 120, 10.0, 5}};
  const TourGuideFeed high{{160, 120, 10.0, 5}};
  const double low_motion = mean_motion(low, 30);
  const double high_motion = mean_motion(high, 30);
  EXPECT_GT(high_motion, 3.0 * low_motion);  // clearly separated classes
  EXPECT_GT(low_motion, 0.0);                // the talking head does move
}

TEST(Feeds, BlankFeedIsStatic) {
  const BlankFeed blank{{64, 48, 10.0, 1}};
  EXPECT_DOUBLE_EQ(mean_motion(blank, 10), 0.0);
}

TEST(FlashFeed, PeriodicityAtConfiguredRate) {
  const FlashFeed feed{{64, 48, 10.0, 1}, 2.0, 2};
  // Period = 20 frames at 10 fps; flash frames are index 0,1 of each period.
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(feed.is_flash_frame(i), i % 20 < 2) << "frame " << i;
  }
}

TEST(FlashFeed, RejectsPeriodShorterThanOneFrame) {
  // 2 s at 0.2 fps rounds to zero frames per period: frame_at would divide
  // by zero.
  EXPECT_THROW((FlashFeed{{64, 48, 0.2, 1}, 2.0, 2}), std::invalid_argument);
  EXPECT_THROW((FlashFeed{{64, 48, 0.0, 1}, 2.0, 2}), std::invalid_argument);
  EXPECT_THROW((FlashFeed{{64, 48, -10.0, 1}, 2.0, 2}), std::invalid_argument);
  EXPECT_THROW((FlashFeed{{64, 48, 10.0, 1}, 0.04, 1}), std::invalid_argument);
  const FlashFeed one_frame{{64, 48, 10.0, 1}, 0.1, 1};
  EXPECT_TRUE(one_frame.is_flash_frame(7));
}

TEST(FlashFeed, FlashVisiblyDiffersFromBlank) {
  const FlashFeed feed{{64, 48, 10.0, 1}};
  const Frame flash = feed.frame_at(0);
  const Frame blank = feed.frame_at(10);
  EXPECT_GT(flash.mse(blank), 1000.0);
  // Blank frames are identical to each other.
  EXPECT_EQ(feed.frame_at(10), feed.frame_at(11));
}

TEST(PaddedFeed, GeometryAndContentPlacement) {
  auto inner = std::make_shared<TalkingHeadFeed>(FeedParams{160, 120, 10.0, 4});
  const PaddedFeed padded{inner, 20, 16};
  EXPECT_EQ(padded.width(), 200);
  EXPECT_EQ(padded.height(), 160);
  const Frame pf = padded.frame_at(3);
  const Frame in = inner->frame_at(3);
  // Padding border is uniform.
  EXPECT_EQ(pf.at(0, 0), 16);
  EXPECT_EQ(pf.at(199, 159), 16);
  // Content is centered.
  EXPECT_EQ(pf.at(20, 20), in.at(0, 0));
  EXPECT_EQ(pf.at(179, 139), in.at(159, 119));
}

TEST(PaddedFeed, RejectsBadArguments) {
  EXPECT_THROW(PaddedFeed(nullptr, 4), std::invalid_argument);
  auto inner = std::make_shared<BlankFeed>(FeedParams{});
  EXPECT_THROW(PaddedFeed(inner, -1), std::invalid_argument);
}

TEST(Feeds, NonPositiveGeometryThrows) {
  for (const auto& [w, h] : {std::pair{0, 48}, std::pair{64, 0}, std::pair{-1, 48},
                            std::pair{64, -1}, std::pair{-(1 << 20), -(1 << 20)}}) {
    const FeedParams p{w, h, 15.0, 1};
    const TourGuideFeed tour{p};
    EXPECT_THROW(tour.frame_at(0), std::invalid_argument) << w << "x" << h;
    EXPECT_THROW(TalkingHeadFeed{p}, std::invalid_argument) << w << "x" << h;
    EXPECT_THROW((FlashFeed{p}), std::invalid_argument) << w << "x" << h;
  }
}

TEST(Feeds, NegativeIndexThrows) {
  const TalkingHeadFeed feed{{160, 120, 10.0, 5}};
  EXPECT_THROW(feed.frame_at(-1), std::invalid_argument);
}

}  // namespace
}  // namespace vc::media
