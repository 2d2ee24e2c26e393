// Byte-identity pins for the QoE post-processing.
//
// Each test builds a codec-degraded recording of a feed that lags its
// reference by a known number of frames, then hashes the bits of every
// score the alignment and scoring steps produce into one FNV-1a digest:
// qoe::ssim for every (shift, probe) pair best_temporal_shift visits, the
// shift it picks, and mean_video_qoe at that shift. Further digests pin
// qoe::vifp pair by pair (including a blank reference and frames too small
// for the full pyramid) and core::VideoScorer's per-receiver scores over a
// session of several recordings. The digests were recorded from the
// reference implementation, so any change to SSIM, VIFp, the alignment
// search, the metric means or the session scorer that moves a single bit
// fails here, whatever it was meant to speed up.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/session_world.h"
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
  qoe::ReferenceFrames reference{r.reference};
  const qoe::VideoQoe q = qoe::mean_video_qoe(reference, {{&r.recording, shift}}, 1).front();
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

/// Digests vifp(reference[k], recording[k]) for every k, so the held dark
/// frames are scored against content too.
std::uint64_t vifp_digest(const Recording& r) {
  std::uint64_t h = kFnvBasis;
  for (std::size_t k = 0; k < r.recording.size(); ++k) {
    mix(h, qoe::vifp(r.reference[k], r.recording[k]));
  }
  return h;
}

TEST(QoeIdentity, VifpPairsArePinned) {
  const TalkingHeadFeed talking{{160, 112, 10.0, 3}};
  const TourGuideFeed touring{{160, 112, 10.0, 5}};
  const FlashFeed flash{{160, 120, 10.0, 0xF00D}, 1.0};
  EXPECT_EQ(vifp_digest(lagged_recording(talking, 8, 2, 300)), 0xda3a07f39a7279dbULL);
  EXPECT_EQ(vifp_digest(lagged_recording(touring, 8, 3, 300)), 0xf31f1c4c42c0757fULL);
  EXPECT_EQ(vifp_digest(lagged_recording(flash, 12, 2, 300)), 0x1423c121823fec35ULL);
}

// A flat reference carries no information: the denominator is zero and the
// score is 1 whatever the distorted frame shows. The other way round, a flat
// distorted frame keeps none of the reference's.
TEST(QoeIdentity, VifpBlankReferenceIsPinned) {
  const Frame blank{96, 64, 16};
  const Frame content = TourGuideFeed{{96, 64, 10.0, 5}}.frame_at(3);
  EXPECT_EQ(qoe::vifp(blank, content), 1.0);
  EXPECT_EQ(qoe::vifp(blank, blank), 1.0);
  std::uint64_t h = kFnvBasis;
  mix(h, qoe::vifp(content, blank));
  EXPECT_EQ(h, 0xa8c7f832281a39c5ULL);
}

// 40x40 stops the pyramid after scale 3, 20x20 after scale 1, and 12x12
// leaves no valid pixel at scale 1 (a zero denominator).
TEST(QoeIdentity, VifpShortPyramidsArePinned) {
  std::uint64_t h = kFnvBasis;
  for (const int side : {40, 20, 12}) {
    const TourGuideFeed feed{{side, side, 10.0, 11}};
    mix(h, qoe::vifp(feed.frame_at(0), feed.frame_at(1)));
    mix(h, qoe::vifp(feed.frame_at(2), feed.frame_at(2)));
  }
  EXPECT_EQ(h, 0x0cd302749a1389bfULL);
}

/// A padded recording of `feed`: `shift` held pad-coloured frames, then the
/// encoder's reconstruction of the padded feed from frame 0 on, `frames`
/// frames in all.
RecordedVideo padded_recording(const PaddedFeed& feed, int frames, int shift, int kbps) {
  VideoEncoder::Config c;
  c.target_bitrate = DataRate::kbps(kbps);
  c.fps = feed.fps();
  VideoEncoder enc{feed.width(), feed.height(), c};
  RecordedVideo out;
  out.fps = feed.fps();
  for (int i = 0; i < std::min(shift, frames); ++i) {
    out.frames.emplace_back(feed.width(), feed.height(), 16);
  }
  for (int i = 0; i + shift < frames; ++i) {
    enc.encode(feed.frame_at(i));
    out.frames.push_back(enc.last_reconstructed());
  }
  return out;
}

// One session: four receivers of the same padded tour-guide feed with
// different lags, lengths and rates; the last is too short to score.
TEST(QoeIdentity, SessionScorerScoresArePinned) {
  constexpr int kPad = 8;
  const auto content = std::make_shared<TourGuideFeed>(FeedParams{112, 80, 10.0, 9});
  const PaddedFeed padded{content, kPad};
  const std::vector<RecordedVideo> recordings = {
      padded_recording(padded, 40, 2, 300), padded_recording(padded, 33, 5, 200),
      padded_recording(padded, 27, 0, 400), padded_recording(padded, 10, 1, 300)};
  const core::VideoScorer scorer{kPad, 112, 80, /*metric_stride=*/3};
  const auto scores =
      scorer.score({&recordings[0], &recordings[1], &recordings[2], &recordings[3]}, *content);
  ASSERT_EQ(scores.size(), recordings.size());
  EXPECT_FALSE(scores.back().has_value());
  std::uint64_t h = kFnvBasis;
  for (const auto& q : scores) {
    mix(h, static_cast<std::uint64_t>(q.has_value()));
    if (q) {
      mix(h, q->psnr);
      mix(h, q->ssim);
      mix(h, q->vifp);
    }
  }
  EXPECT_EQ(h, 0x469bade5e3bf1dafULL);
}

}  // namespace
}  // namespace vc::media
