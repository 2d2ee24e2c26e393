// Procedural video feeds — the simulator's replacement for the paper's
// replayed video files (Section 3.1 "Media feeder").
//
// Three content classes drive the experiments:
//  * TalkingHeadFeed — the "low-motion" feed: a single person against a
//    stationary background, talking with occasional hand gestures.
//  * TourGuideFeed  — the "high-motion" feed: panning outdoor scenes with
//    moving objects and periodic scene changes.
//  * FlashFeed      — blank screen with a bright image flashed periodically
//    (two-second period), used for streaming-lag measurement (Fig 2).
// PaddedFeed wraps any feed with a margin so client UI widgets never occlude
// content (Fig 13); the recorder pipeline later crops the padding back out.
//
// All feeds are deterministic functions of (seed, frame index): replaying a
// feed twice produces identical pixels, which is what makes benchmarking
// reproducible (design goal D3).
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "media/frame.h"

namespace vc::media {

class VideoFeed {
 public:
  virtual ~VideoFeed() = default;
  virtual int width() const = 0;
  virtual int height() const = 0;
  virtual double fps() const = 0;
  /// Renders frame `index` (index 0 is the first frame). Must be pure.
  virtual Frame frame_at(std::int64_t index) const = 0;
};

struct FeedParams {
  int width = 320;
  int height = 240;
  double fps = 15.0;
  std::uint64_t seed = 1;
  /// Camera sensor noise (std-dev in luma units), applied per pixel and per
  /// frame, deterministically. Real capture pipelines are never noise-free —
  /// this is what keeps a "low-motion" camera feed from compressing to
  /// nothing, and real VCA rates at ~1 Mbps for a talking head. Synthetic
  /// feeds (FlashFeed, BlankFeed) carry no noise, exactly like the paper's
  /// digitally generated blank-screen file.
  double sensor_noise_sigma = 2.0;
};

/// Low-motion: static background, slightly bobbing head, animated mouth,
/// occasional hand gesture.
class TalkingHeadFeed final : public VideoFeed {
 public:
  explicit TalkingHeadFeed(FeedParams params = {});
  int width() const override { return p_.width; }
  int height() const override { return p_.height; }
  double fps() const override { return p_.fps; }
  Frame frame_at(std::int64_t index) const override;

 private:
  FeedParams p_;
  Frame background_;
};

/// High-motion: panning textured background, moving foreground objects, and
/// a full scene change every few seconds.
class TourGuideFeed final : public VideoFeed {
 public:
  explicit TourGuideFeed(FeedParams params = {});
  int width() const override { return p_.width; }
  int height() const override { return p_.height; }
  double fps() const override { return p_.fps; }
  Frame frame_at(std::int64_t index) const override;

 private:
  FeedParams p_;
  double scene_change_period_sec_ = 5.0;
};

/// Lag-measurement feed: dark blank frames, with a bright checker image for
/// `flash_frames` frames every `period_sec` seconds. The flash image does not
/// depend on the frame index, so it is rendered once, at construction.
class FlashFeed final : public VideoFeed {
 public:
  /// Throws std::invalid_argument unless fps > 0 and the period spans at
  /// least one frame.
  FlashFeed(FeedParams params = {}, double period_sec = 2.0, int flash_frames = 2);
  int width() const override { return p_.width; }
  int height() const override { return p_.height; }
  double fps() const override { return p_.fps; }
  Frame frame_at(std::int64_t index) const override;

  double period_sec() const { return period_sec_; }
  /// True if frame `index` is part of a flash.
  bool is_flash_frame(std::int64_t index) const;

 private:
  FeedParams p_;
  double period_sec_;
  int flash_frames_;
  std::int64_t period_frames_;
  Frame flash_;
};

/// Constant dark frame (a participant with camera muted).
class BlankFeed final : public VideoFeed {
 public:
  explicit BlankFeed(FeedParams params = {});
  int width() const override { return p_.width; }
  int height() const override { return p_.height; }
  double fps() const override { return p_.fps; }
  Frame frame_at(std::int64_t index) const override;

 private:
  FeedParams p_;
};

/// Adds a uniform margin of `pad` pixels around an inner feed (Fig 13).
class PaddedFeed final : public VideoFeed {
 public:
  PaddedFeed(std::shared_ptr<const VideoFeed> inner, int pad, std::uint8_t pad_luma = 16);
  int width() const override { return inner_->width() + 2 * pad_; }
  int height() const override { return inner_->height() + 2 * pad_; }
  double fps() const override { return inner_->fps(); }
  Frame frame_at(std::int64_t index) const override;

  int pad() const { return pad_; }
  const VideoFeed& inner() const { return *inner_; }

 private:
  std::shared_ptr<const VideoFeed> inner_;
  int pad_;
  std::uint8_t pad_luma_;
};

/// Mean absolute per-pixel difference between consecutive frames, averaged
/// over `frames` — the quantitative notion of "motion" used in tests and the
/// codec ablation.
double mean_motion(const VideoFeed& feed, std::int64_t frames);

}  // namespace vc::media
