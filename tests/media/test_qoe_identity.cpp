// Byte-identity pins for the QoE post-processing.
//
// Each test builds a codec-degraded recording of a feed that lags its
// reference by a known number of frames, then hashes the bits of every
// score the alignment and scoring steps produce into one FNV-1a digest:
// qoe::ssim for every (shift, probe) pair best_temporal_shift visits, the
// shift it picks, and mean_video_qoe at that shift. The digests
// were recorded from the reference implementation, so any change to SSIM,
// the alignment search or the metric means that moves a single bit fails
// here, whatever it was meant to speed up.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "media/align.h"
#include "media/feeds.h"
#include "media/qoe/video_metrics.h"
#include "media/video_codec.h"

namespace vc::media {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::int64_t kMaxShift = 10;  // VideoScorer's search range
constexpr std::int64_t kProbes = 20;    // best_temporal_shift's default

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

void mix(std::uint64_t& h, double v) { mix(h, std::bit_cast<std::uint64_t>(v)); }

struct Recording {
  std::vector<Frame> reference;
  std::vector<Frame> recording;
};

/// `frames` reference frames of `feed`, and a recording of the same length
/// that shows a held dark frame for `shift` frames, then the encoder's
/// reconstruction of the feed from frame 0 on.
Recording lagged_recording(const VideoFeed& feed, int frames, int shift, int kbps) {
  VideoEncoder::Config c;
  c.target_bitrate = DataRate::kbps(kbps);
  c.fps = feed.fps();
  VideoEncoder enc{feed.width(), feed.height(), c};
  Recording out;
  for (int i = 0; i < shift; ++i) out.recording.emplace_back(feed.width(), feed.height(), 16);
  for (int i = 0; i < frames; ++i) {
    out.reference.push_back(feed.frame_at(i));
    enc.encode(out.reference.back());
    if (i + shift < frames) out.recording.push_back(enc.last_reconstructed());
  }
  return out;
}

/// Digests every SSIM the shift search evaluates, in its visiting order.
std::uint64_t probe_digest(const Recording& r) {
  std::uint64_t h = kFnvBasis;
  for (std::int64_t shift = 0; shift <= kMaxShift; ++shift) {
    const auto common = static_cast<std::int64_t>(
        std::min(r.reference.size(), r.recording.size() - static_cast<std::size_t>(shift)));
    const std::int64_t stride = std::max<std::int64_t>(1, common / kProbes);
    for (std::int64_t i = 0; i < common; i += stride) {
      mix(h, qoe::ssim(r.reference[static_cast<std::size_t>(i)],
                       r.recording[static_cast<std::size_t>(i + shift)]));
    }
  }
  return h;
}

/// Digests the picked shift and the QoE means at that shift.
std::uint64_t score_digest(const Recording& r, std::int64_t* shift_out) {
  const std::int64_t shift = best_temporal_shift(r.reference, r.recording, kMaxShift);
  *shift_out = shift;
  const qoe::VideoQoe q = qoe::mean_video_qoe(r.reference, r.recording, shift, 1);
  std::uint64_t h = kFnvBasis;
  mix(h, static_cast<std::uint64_t>(shift));
  mix(h, q.psnr);
  mix(h, q.ssim);
  mix(h, q.vifp);
  return h;
}

// 160x112 is the qoe benchmark's content size; 40 frames is a probe stride
// of 2 at every shift.
TEST(QoeIdentity, TalkingHeadScoresArePinned) {
  const TalkingHeadFeed feed{{160, 112, 10.0, 3}};
  const Recording r = lagged_recording(feed, 40, 3, 300);
  std::int64_t shift = -1;
  EXPECT_EQ(probe_digest(r), 0xf940effa613dbeddULL);
  EXPECT_EQ(score_digest(r, &shift), 0x218f825a0f8cf99cULL);
  EXPECT_EQ(shift, 3);
}

TEST(QoeIdentity, TourGuideScoresArePinned) {
  const TourGuideFeed feed{{160, 112, 10.0, 5}};
  const Recording r = lagged_recording(feed, 40, 6, 300);
  std::int64_t shift = -1;
  EXPECT_EQ(probe_digest(r), 0xf9649b2081c228e9ULL);
  EXPECT_EQ(score_digest(r, &shift), 0xe7397227c58c5f62ULL);
  EXPECT_EQ(shift, 6);
}

// Mostly flat frames: windows whose variance is zero on one side or both.
TEST(QoeIdentity, FlashScoresArePinned) {
  const FlashFeed feed{{160, 120, 10.0, 0xF00D}, 1.0};
  const Recording r = lagged_recording(feed, 40, 2, 300);
  std::int64_t shift = -1;
  EXPECT_EQ(probe_digest(r), 0xa1bc34b7fb9f8b0bULL);
  EXPECT_EQ(score_digest(r, &shift), 0x3bf9ef68b0a156aeULL);
  EXPECT_EQ(shift, 2);
}

// Odd sizes (the codec's 64x48 output cropped to 61x45): the last window
// column and row stop short of the frame edge, and 17 frames give a probe
// stride of 1.
TEST(QoeIdentity, OddSizedTourGuideScoresArePinned) {
  const TourGuideFeed feed{{64, 48, 10.0, 7}};
  Recording r = lagged_recording(feed, 17, 4, 120);
  for (auto* seq : {&r.reference, &r.recording}) {
    for (Frame& f : *seq) f = f.crop(1, 2, 61, 45);
  }
  std::int64_t shift = -1;
  EXPECT_EQ(probe_digest(r), 0xedb083dc4ecf19c4ULL);
  EXPECT_EQ(score_digest(r, &shift), 0xda273c8f59cbdb1dULL);
  EXPECT_EQ(shift, 4);
}

}  // namespace
}  // namespace vc::media
