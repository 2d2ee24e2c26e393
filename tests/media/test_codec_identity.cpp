// Byte-identity pins for the encoder and the feeds.
//
// A stream test hashes everything a stream carries — every EncodedFrame
// field and the encoder's reconstruction after every frame — into one FNV-1a
// digest; a pixel test hashes the frames a feed renders. Each compares its
// digest with one recorded from the reference implementation. Any change to
// the codec or the feeds that moves a single bit of any frame fails here,
// whatever it was meant to speed up.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "media/feeds.h"
#include "media/video_codec.h"

namespace vc::media {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

void mix_frame(std::uint64_t& h, const Frame& f) {
  mix(h, static_cast<std::uint64_t>(f.width()));
  mix(h, static_cast<std::uint64_t>(f.height()));
  for (std::size_t i = 0; i < f.size(); ++i) {
    h ^= f.data()[i];
    h *= 0x100000001b3ULL;
  }
}

void mix_encoded(std::uint64_t& h, const EncodedFrame& f) {
  mix(h, static_cast<std::uint64_t>(f.width));
  mix(h, static_cast<std::uint64_t>(f.height));
  mix(h, f.keyframe ? 1 : 0);
  mix(h, std::bit_cast<std::uint64_t>(f.qstep));
  mix(h, static_cast<std::uint64_t>(f.bytes));
  mix(h, static_cast<std::uint64_t>(f.wire_bytes));
  mix(h, static_cast<std::uint64_t>(f.sequence));
  mix(h, static_cast<std::uint64_t>(f.skip_blocks));
  mix(h, static_cast<std::uint64_t>(f.total_blocks));
  mix(h, f.coeffs.size());
  for (const std::int16_t c : f.coeffs) mix(h, static_cast<std::uint16_t>(c));
  mix(h, f.modes.size());
  for (const BlockMode m : f.modes) mix(h, static_cast<std::uint64_t>(m));
}

VideoEncoder::Config cfg(double fps) {
  VideoEncoder::Config c;
  c.target_bitrate = DataRate::kbps(600);
  c.fps = fps;
  return c;
}

/// Encodes `frames` frames of `feed` and digests every output field plus the
/// reconstruction after each frame.
std::uint64_t stream_digest(const VideoFeed& feed, int frames) {
  VideoEncoder enc{feed.width(), feed.height(), cfg(feed.fps())};
  std::uint64_t h = kFnvBasis;
  for (int i = 0; i < frames; ++i) {
    const auto out = enc.encode(feed.frame_at(i));
    mix_encoded(h, *out);
    mix_frame(h, enc.last_reconstructed());
  }
  return h;
}

std::uint64_t frame_digest(const Frame& f) {
  std::uint64_t h = kFnvBasis;
  mix_frame(h, f);
  return h;
}

// The city sweep's feed: 160x120 at 10 fps, so 120 frames cover keyframes
// (0 and 60), six flashes, the frames right after each flash, and long runs
// of all-SKIP repeats of the unchanged blank screen.
TEST(CodecIdentity, FlashFeedStreamIsPinned) {
  const FlashFeed feed{{160, 120, 10.0, 0xF00D}};
  // The window really covers every path: count the all-SKIP repeats.
  VideoEncoder enc{feed.width(), feed.height(), cfg(feed.fps())};
  int all_skip = 0;
  for (int i = 0; i < 120; ++i) {
    const auto out = enc.encode(feed.frame_at(i));
    if (!out->keyframe && out->skip_blocks == out->total_blocks) ++all_skip;
  }
  EXPECT_GE(all_skip, 90);
  EXPECT_EQ(stream_digest(feed, 120), 0x22ed3e27233a9219ULL);
}

TEST(CodecIdentity, PaddedTalkingHeadStreamsArePinned) {
  const PaddedFeed big{std::make_shared<TalkingHeadFeed>(FeedParams{176, 128, 15.0, 3}), 8};
  const PaddedFeed small{std::make_shared<TalkingHeadFeed>(FeedParams{64, 48, 15.0, 3}), 8};
  EXPECT_EQ(stream_digest(big, 60), 0xcc4cbbbef2922551ULL);
  EXPECT_EQ(stream_digest(small, 60), 0xc35d63b7b704ffe0ULL);
}

TEST(CodecIdentity, PaddedTourGuideStreamsArePinned) {
  const PaddedFeed big{std::make_shared<TourGuideFeed>(FeedParams{176, 128, 15.0, 5}), 8};
  const PaddedFeed small{std::make_shared<TourGuideFeed>(FeedParams{64, 48, 15.0, 5}), 8};
  EXPECT_EQ(stream_digest(big, 60), 0xe6ec6ccf1417b289ULL);
  EXPECT_EQ(stream_digest(small, 60), 0x54e5e1e19ea40d73ULL);
}

TEST(CodecIdentity, FlashFeedPixelsArePinned) {
  const FlashFeed feed{{160, 120, 10.0, 0xF00D}};
  ASSERT_TRUE(feed.is_flash_frame(20));
  ASSERT_FALSE(feed.is_flash_frame(22));
  EXPECT_EQ(frame_digest(feed.frame_at(20)), 0x1e9bcdea41cc3b5cULL);
  EXPECT_EQ(frame_digest(feed.frame_at(22)), 0x6407339b2fa02ffdULL);
  // Every flash shows the same image and every quiet frame the same blank.
  EXPECT_EQ(feed.frame_at(0), feed.frame_at(41));
  EXPECT_EQ(feed.frame_at(3), feed.frame_at(119));
}

// Feed pixels, frame by frame. At 15 fps, frames 26-49 fall where the
// tour guide's vertical pan is negative (t in 1.7-3.3 s) and frame 75 is the
// first of its second scene (t >= 5 s), so the noise lattice is covered at
// negative coordinates and under a re-seeded texture. The odd geometries
// leave partial lattice cells at the right and bottom edges.
const std::vector<std::int64_t> kFeedFrames{0, 1, 26, 37, 49, 74, 75, 76, 150};

std::uint64_t feed_digest(const VideoFeed& feed) {
  std::uint64_t h = kFnvBasis;
  for (const std::int64_t i : kFeedFrames) mix(h, frame_digest(feed.frame_at(i)));
  return h;
}

TEST(CodecIdentity, TourGuideFeedPixelsArePinned) {
  EXPECT_EQ(feed_digest(TourGuideFeed{{64, 48, 15.0, 5}}), 0x0fb142b40caf0bbcULL);
  EXPECT_EQ(feed_digest(TourGuideFeed{{160, 112, 15.0, 7}}), 0xd34236209c47b2beULL);
  EXPECT_EQ(feed_digest(TourGuideFeed{{1, 1, 15.0, 5}}), 0xe48691697d400bb8ULL);
  EXPECT_EQ(feed_digest(TourGuideFeed{{7, 5, 15.0, 5}}), 0x519d301d089b38c2ULL);
  EXPECT_EQ(feed_digest(TourGuideFeed{{33, 17, 15.0, 11}}), 0xfb225a94f5a84660ULL);
}

// The texture row kernel runs 4 and 8 pixels per step with a scalar tail:
// rows of exactly one and two vectors, and one pixel past each.
TEST(CodecIdentity, TourGuideFeedPixelsArePinnedAtVectorWidths) {
  EXPECT_EQ(feed_digest(TourGuideFeed{{4, 3, 15.0, 5}}), 0xb851b40646a7fb04ULL);
  EXPECT_EQ(feed_digest(TourGuideFeed{{5, 9, 15.0, 5}}), 0xbc624339072017d8ULL);
  EXPECT_EQ(feed_digest(TourGuideFeed{{8, 8, 15.0, 11}}), 0xd9095109c7e23a06ULL);
  EXPECT_EQ(feed_digest(TourGuideFeed{{9, 4, 15.0, 7}}), 0x98aaeddb036cdb97ULL);
}

TEST(CodecIdentity, TourGuideFeedPixelsArePinnedAtEachSensorNoise) {
  EXPECT_EQ(feed_digest(TourGuideFeed{{64, 48, 15.0, 5, 0.0}}), 0x99c1b8c6e133ae58ULL);
  EXPECT_EQ(feed_digest(TourGuideFeed{{64, 48, 15.0, 5, 9.0}}), 0xe1206c5749ebfbddULL);
}

TEST(CodecIdentity, TalkingHeadFeedPixelsArePinned) {
  // Narrower than the wall's 48 px lattice cell, and odd in both axes.
  EXPECT_EQ(feed_digest(TalkingHeadFeed{{41, 31, 15.0, 3}}), 0x48b182d76a0e1f92ULL);
  EXPECT_EQ(feed_digest(TalkingHeadFeed{{160, 112, 15.0, 3}}), 0x583dbd144c026183ULL);
  EXPECT_EQ(feed_digest(TalkingHeadFeed{{41, 31, 15.0, 3, 0.0}}), 0xf61e6cf4d3283a1aULL);
  EXPECT_EQ(feed_digest(TalkingHeadFeed{{41, 31, 15.0, 3, 9.0}}), 0x70225079e5e0237cULL);
}

TEST(CodecIdentity, OddFlashFeedPixelsArePinned) {
  const FlashFeed feed{{33, 17, 10.0, 0xF00D}};
  ASSERT_TRUE(feed.is_flash_frame(0));
  EXPECT_EQ(frame_digest(feed.frame_at(0)), 0x09f0acad33185337ULL);
}

TEST(CodecIdentity, PaddedFeedPixelsArePinned) {
  // The congested cell's padded 64x48 tour guide, and an odd inner size.
  const PaddedFeed tour{std::make_shared<TourGuideFeed>(FeedParams{64, 48, 15.0, 5}), 8};
  const PaddedFeed head{std::make_shared<TalkingHeadFeed>(FeedParams{33, 17, 15.0, 3}), 3};
  EXPECT_EQ(feed_digest(tour), 0x88d418d4b6d649e8ULL);
  EXPECT_EQ(feed_digest(head), 0x36dc21c59b0380e2ULL);
}

// The congested cell's exact feed: flow 0's padded 64x48 tour guide at
// 10 fps (seed 1 ^ 0xFEED), every frame of its 20 s of media. Frames 17-33
// pan upwards and frame 50 starts the second scene.
TEST(CodecIdentity, CongestedFeedPixelsArePinned) {
  const PaddedFeed feed{
      std::make_shared<TourGuideFeed>(FeedParams{64, 48, 10.0, 1 ^ 0xFEED}), 8};
  std::uint64_t h = kFnvBasis;
  for (std::int64_t i = 0; i < 200; ++i) mix(h, frame_digest(feed.frame_at(i)));
  EXPECT_EQ(h, 0xbbe4d05afdbecc94ULL);
}

// The quantizer's inline rounding is std::lround on the ties and on the
// largest value below a tie, where floor(c + 0.5) would round up.
TEST(CodecIdentity, InlineRoundingMatchesLround) {
  for (const double c : {0.5, -0.5, 2.5, -2.5, std::nextafter(0.5, 0.0),
                         -std::nextafter(0.5, 0.0), 32767.5, -32767.5, 1.4999, -7.0, 0.0}) {
    EXPECT_EQ(round_half_away(c), std::lround(c)) << c;
  }
}

// Encoders share nothing observable: interleaving two of them on one thread,
// frame by frame, yields exactly the streams each produces alone.
TEST(CodecIdentity, InterleavedEncodersMatchSoloRuns) {
  const FlashFeed flash{{160, 120, 10.0, 0xF00D}};
  const TourGuideFeed tour{{128, 96, 10.0, 7}};
  VideoEncoder a{flash.width(), flash.height(), cfg(flash.fps())};
  VideoEncoder b{tour.width(), tour.height(), cfg(tour.fps())};
  std::uint64_t ha = kFnvBasis;
  std::uint64_t hb = kFnvBasis;
  for (int i = 0; i < 45; ++i) {
    const auto fa = a.encode(flash.frame_at(i));
    mix_encoded(ha, *fa);
    mix_frame(ha, a.last_reconstructed());
    const auto fb = b.encode(tour.frame_at(i));
    mix_encoded(hb, *fb);
    mix_frame(hb, b.last_reconstructed());
  }
  EXPECT_EQ(ha, stream_digest(flash, 45));
  EXPECT_EQ(hb, stream_digest(tour, 45));
}

}  // namespace
}  // namespace vc::media
