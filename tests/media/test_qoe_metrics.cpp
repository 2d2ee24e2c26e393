#include <gtest/gtest.h>

#include "common/rng.h"
#include "media/align.h"
#include "media/audio.h"
#include "media/feeds.h"
#include "media/qoe/mos_lqo.h"
#include "media/qoe/video_metrics.h"

namespace vc::media {
namespace {

Frame noisy(const Frame& f, double sigma, std::uint64_t seed) {
  Rng rng{seed};
  Frame out = f;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double v = out.data()[i] + rng.normal(0.0, sigma);
    out.data()[i] = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
  }
  return out;
}

/// One recording's mean QoE against reference frames in memory.
qoe::VideoQoe mean_of(const std::vector<Frame>& reference, const std::vector<Frame>& recording,
                      std::int64_t shift, std::int64_t stride) {
  qoe::ReferenceFrames frames{reference};
  return qoe::mean_video_qoe(frames, {{&recording, shift}}, stride).front();
}

Frame test_image(std::uint64_t seed = 3) {
  return TourGuideFeed{{128, 96, 10.0, seed}}.frame_at(0);
}

TEST(Psnr, IdenticalHitsCap) {
  const Frame f = test_image();
  EXPECT_DOUBLE_EQ(qoe::psnr(f, f), 100.0);
}

TEST(Psnr, KnownValueForUniformError) {
  Frame a{64, 64, 100};
  Frame b{64, 64, 110};
  // MSE = 100 → PSNR = 10 log10(255² / 100) ≈ 28.13 dB.
  EXPECT_NEAR(qoe::psnr(a, b), 28.13, 0.01);
}

TEST(Psnr, MonotoneInNoise) {
  const Frame f = test_image();
  EXPECT_GT(qoe::psnr(f, noisy(f, 2, 1)), qoe::psnr(f, noisy(f, 10, 1)));
}

TEST(Ssim, IdenticalIsOne) {
  const Frame f = test_image();
  EXPECT_NEAR(qoe::ssim(f, f), 1.0, 1e-9);
}

TEST(Ssim, MonotoneInNoise) {
  const Frame f = test_image();
  const double s_light = qoe::ssim(f, noisy(f, 3, 2));
  const double s_heavy = qoe::ssim(f, noisy(f, 20, 2));
  EXPECT_GT(s_light, s_heavy);
  EXPECT_GT(s_light, 0.8);
  EXPECT_LT(s_heavy, 0.75);
}

TEST(Ssim, UnrelatedImagesScoreLow) {
  const Frame a = test_image(1);
  const Frame b = test_image(99);
  // Two tour frames share texture *statistics* but not structure: SSIM must
  // land far below the ~0.9+ of a faithful transmission.
  EXPECT_LT(qoe::ssim(a, b), 0.55);
}

TEST(Vifp, IdenticalIsOne) {
  const Frame f = test_image();
  EXPECT_NEAR(qoe::vifp(f, f), 1.0, 1e-6);
}

TEST(Vifp, MonotoneInNoise) {
  const Frame f = test_image();
  const double v_light = qoe::vifp(f, noisy(f, 3, 4));
  const double v_heavy = qoe::vifp(f, noisy(f, 20, 4));
  EXPECT_GT(v_light, v_heavy);
  EXPECT_GT(v_heavy, 0.0);
}

TEST(Vifp, BlurReducesInformation) {
  const Frame f = test_image();
  // Box-blur the image: structural information lost → VIFp well below 1.
  Frame blurred = f;
  for (int y = 1; y < f.height() - 1; ++y) {
    for (int x = 1; x < f.width() - 1; ++x) {
      int acc = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) acc += f.at(x + dx, y + dy);
      }
      blurred.set(x, y, static_cast<std::uint8_t>(acc / 9));
    }
  }
  // A 3×3 box blur removes fine-scale information; VIFp must drop below the
  // identity score (it weighs coarse scales heavily, so the drop is modest).
  EXPECT_LT(qoe::vifp(f, blurred), 0.95);
  EXPECT_GT(qoe::vifp(f, blurred), 0.3);
}

TEST(VideoQoe, BundleMatchesIndividuals) {
  const Frame f = test_image();
  const Frame g = noisy(f, 5, 6);
  const auto q = qoe::video_qoe(f, g);
  EXPECT_DOUBLE_EQ(q.psnr, qoe::psnr(f, g));
  EXPECT_DOUBLE_EQ(q.ssim, qoe::ssim(f, g));
  EXPECT_DOUBLE_EQ(q.vifp, qoe::vifp(f, g));
}

TEST(VideoQoe, MeanOverSequence) {
  std::vector<Frame> ref;
  std::vector<Frame> dist;
  for (int i = 0; i < 4; ++i) {
    ref.push_back(test_image(static_cast<std::uint64_t>(i)));
    dist.push_back(noisy(ref.back(), 5, static_cast<std::uint64_t>(i)));
  }
  const auto q = mean_of(ref, dist, 0, 1);
  EXPECT_GT(q.psnr, 20.0);
  EXPECT_LT(q.psnr, 100.0);
  EXPECT_THROW(mean_of({}, {}, 0, 1), std::invalid_argument);
  EXPECT_THROW(mean_of({}, dist, 0, 1), std::invalid_argument);
  EXPECT_THROW(mean_of(ref, dist, 0, 0), std::invalid_argument);
}

TEST(MetricInputs, SizeMismatchThrows) {
  Frame a{64, 64};
  Frame b{32, 32};
  EXPECT_THROW(qoe::psnr(a, b), std::invalid_argument);
  EXPECT_THROW(qoe::ssim(a, b), std::invalid_argument);
  EXPECT_THROW(qoe::vifp(a, b), std::invalid_argument);
  EXPECT_THROW(qoe::vifp(qoe::VifpReference{a}, b), std::invalid_argument);
  EXPECT_THROW(qoe::VifpReference{Frame{}}, std::invalid_argument);
}

// ---------------------------------------------------------------- audio MOS

TEST(MosLqo, IdenticalNearCeiling) {
  const auto v = synthesize_voice(2.0, 31);
  EXPECT_GT(qoe::mos_lqo(v, v), 4.5);
}

TEST(MosLqo, NoiseDegrades) {
  auto v = synthesize_voice(2.0, 33);
  normalize_loudness(v);
  AudioSignal noisy_sig = v;
  Rng rng{5};
  for (auto& s : noisy_sig.samples) s += static_cast<float>(rng.normal(0.0, 0.08));
  const double clean = qoe::mos_lqo(v, v);
  const double degraded = qoe::mos_lqo(v, noisy_sig);
  EXPECT_LT(degraded, clean - 0.4);
}

TEST(MosLqo, DropoutsDegrade) {
  auto v = synthesize_voice(3.0, 35);
  normalize_loudness(v);
  AudioSignal gappy = v;
  // Zero out 100 ms every 500 ms (the Webex-under-cap artifact).
  const std::size_t gap = 1600;
  for (std::size_t start = 4000; start + gap < gappy.samples.size(); start += 8000) {
    for (std::size_t i = 0; i < gap; ++i) gappy.samples[start + i] = 0.0F;
  }
  EXPECT_LT(qoe::mos_lqo(v, gappy), qoe::mos_lqo(v, v) - 0.3);
}

TEST(MosLqo, SilenceScoresNearFloor) {
  auto v = synthesize_voice(2.0, 37);
  normalize_loudness(v);
  AudioSignal silence = v;
  for (auto& s : silence.samples) s = 0.0F;
  EXPECT_LT(qoe::mos_lqo(v, silence), 2.5);
}

TEST(MosLqo, MapMonotone) {
  double prev = 0.0;
  for (double s = 0.0; s <= 1.0; s += 0.05) {
    const double mos = qoe::nsim_to_mos(s);
    EXPECT_GE(mos, prev);
    EXPECT_GE(mos, 1.0);
    EXPECT_LE(mos, 5.0);
    prev = mos;
  }
}

// ------------------------------------------------------------------ alignment

TEST(Align, CropAndResize) {
  RecordedVideo rec;
  rec.fps = 10;
  auto inner = std::make_shared<TalkingHeadFeed>(FeedParams{64, 48, 10.0, 8});
  const PaddedFeed padded{inner, 8};
  for (int i = 0; i < 3; ++i) rec.frames.push_back(padded.frame_at(i));
  const auto out = crop_and_resize(rec, 8, 64, 48);
  ASSERT_EQ(out.frames.size(), 3u);
  EXPECT_EQ(out.frames[0], inner->frame_at(0));
  EXPECT_THROW(crop_and_resize(out, 40, 10, 10), std::invalid_argument);
}

TEST(Align, RecoversTemporalShift) {
  TourGuideFeed feed{{64, 48, 10.0, 9}};
  std::vector<Frame> reference;
  std::vector<Frame> recording;
  const int shift = 4;
  for (int i = 0; i < 30; ++i) reference.push_back(feed.frame_at(i));
  // Recording lags by `shift` frames (plus leading garbage frames).
  for (int i = 0; i < shift; ++i) recording.emplace_back(64, 48, 12);
  for (int i = 0; i < 26; ++i) recording.push_back(feed.frame_at(i));
  EXPECT_EQ(best_temporal_shift(reference, recording, 8), shift);
  // At the recovered shift every scored pair is the same frame.
  const auto q = mean_of(reference, recording, shift, 1);
  EXPECT_DOUBLE_EQ(q.ssim, 1.0);
  EXPECT_DOUBLE_EQ(q.psnr, 100.0);
}

TEST(Align, SequenceTruncation) {
  std::vector<Frame> ref(10, Frame{16, 16, 1});
  std::vector<Frame> rec(7, Frame{16, 16, 1});
  // Shift 2 leaves 5 common pairs: ref[0..4] against rec[2..6]. Make the
  // last recording frame differ so the mean shows whether it was read.
  rec[6] = Frame{16, 16, 200};
  const double last = qoe::psnr(ref[4], rec[6]);
  EXPECT_DOUBLE_EQ(mean_of(ref, rec, 2, 1).psnr, (4 * 100.0 + last) / 5.0);
  EXPECT_DOUBLE_EQ(mean_of(ref, rec, 2, 5).psnr, 100.0);  // reads k = 0 only
  EXPECT_THROW(mean_of(ref, rec, 7, 1), std::invalid_argument);
  EXPECT_THROW(mean_of(ref, rec, -1, 1), std::invalid_argument);
}

TEST(Align, ShiftSearchRejectsBadArguments) {
  const std::vector<Frame> frames(12, Frame{16, 16, 9});
  EXPECT_THROW(best_temporal_shift(frames, frames, 4, 0), std::invalid_argument);
  EXPECT_THROW(best_temporal_shift(frames, frames, 4, -3), std::invalid_argument);
  EXPECT_THROW(best_temporal_shift(frames, frames, -1), std::invalid_argument);
  EXPECT_THROW(best_temporal_shift({}, frames, 4), std::invalid_argument);
  EXPECT_EQ(best_temporal_shift(frames, frames, 0, 1), 0);
}

// The window tables are sized by their frame; a mismatched pair must throw
// before any table is read, whichever side is larger.
TEST(Align, ShiftSearchRejectsMismatchedFrameSizes) {
  TourGuideFeed feed{{64, 48, 10.0, 9}};
  std::vector<Frame> reference;
  for (int i = 0; i < 30; ++i) reference.push_back(feed.frame_at(i));
  for (const Frame& odd : {Frame{72, 56, 12}, Frame{56, 40, 12}, Frame{64, 47, 12}}) {
    std::vector<Frame> recording = reference;
    recording[5] = odd;  // probed from shift 0 on
    EXPECT_THROW(best_temporal_shift(reference, recording, 8), std::invalid_argument);
    EXPECT_THROW(best_temporal_shift(recording, reference, 8), std::invalid_argument);
  }
}

TEST(Align, ShiftSearchRejectsFramesBelowTheSsimWindow) {
  for (const Frame& tiny : {Frame{7, 7, 9}, Frame{8, 7, 9}, Frame{7, 8, 9}}) {
    const std::vector<Frame> frames(12, tiny);
    EXPECT_THROW(best_temporal_shift(frames, frames, 4), std::invalid_argument);
  }
  EXPECT_THROW(qoe::SsimWindows{Frame{}}, std::invalid_argument);
}

// Saturated pixels give the largest window moments (64·255² for Σa²); every
// window of white against black scores C1 / (255² + C1).
TEST(Ssim, SaturatedFramesMatchTheClosedForm) {
  constexpr double kC1 = (0.01 * 255) * (0.01 * 255);
  constexpr double kC2 = (0.03 * 255) * (0.03 * 255);
  const Frame white{331, 245, 255};
  const Frame black{331, 245, 0};
  const double window = (kC1 * kC2) / ((255.0 * 255.0 + kC1) * kC2);
  EXPECT_NEAR(qoe::ssim(white, black), window, window * 1e-9);  // mean of 19278 windows
  EXPECT_EQ(qoe::ssim(white, white), 1.0);
}

TEST(Ssim, WindowTablesMustMatchTheirFrames) {
  const Frame a = test_image(1);
  const Frame b = test_image(2);
  const Frame small{64, 48, 9};
  const qoe::SsimWindows wa{a};
  const qoe::SsimWindows wb{b};
  EXPECT_EQ(qoe::ssim(a, wa, b, wb), qoe::ssim(a, b));
  EXPECT_THROW(qoe::ssim(a, wa, b, qoe::SsimWindows{small}), std::invalid_argument);
  EXPECT_THROW(qoe::ssim(a, qoe::SsimWindows{small}, b, wb), std::invalid_argument);
  EXPECT_THROW(qoe::ssim(a, wa, small, wb), std::invalid_argument);
}

}  // namespace
}  // namespace vc::media
