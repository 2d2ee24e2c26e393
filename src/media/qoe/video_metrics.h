// Full-reference video quality metrics, as computed by the VQMT tool used in
// the paper (Section 4.3): PSNR, SSIM (Wang et al. 2004) and pixel-domain
// VIF (Sheikh & Bovik 2006). Each is a per-frame-pair score; session QoE is
// the mean over frames.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "media/feeds.h"
#include "media/frame.h"

namespace vc::media::qoe {

/// Peak signal-to-noise ratio in dB. Identical frames map to `cap` (VQMT
/// caps at a large finite value rather than infinity).
double psnr(const Frame& reference, const Frame& distorted, double cap = 100.0);

/// One frame's SSIM window moments: Σ and Σ² of the pixels of every 8×8
/// window on the stride-2 grid, row by row. Every moment is an exact integer
/// (at most 64·255² < 2^31), so SSIM taken from these tables is bit-identical
/// to summing each window's pixels. Build once per frame and reuse it for
/// every pairing of that frame.
class SsimWindows {
 public:
  /// Throws std::invalid_argument if `frame` is smaller than 8×8.
  explicit SsimWindows(const Frame& frame);

 private:
  friend double ssim(const Frame&, const SsimWindows&, const Frame&, const SsimWindows&);

  int width_;   // size of the frame the tables were built from
  int height_;
  std::vector<std::int32_t> sum_;
  std::vector<std::int32_t> sum_sq_;
};

/// Structural similarity index, mean over 8×8 windows at stride 2, standard
/// constants (K1=0.01, K2=0.03, L=255). Range (-1, 1], 1 for identical.
double ssim(const Frame& reference, const Frame& distorted);

/// The same score from each frame's window moments; only the Σab moments
/// are computed here. Throws std::invalid_argument unless both frames and
/// both tables have one size.
double ssim(const Frame& reference, const SsimWindows& reference_windows,
            const Frame& distorted, const SsimWindows& distorted_windows);

/// VIFp's reference half: at each pyramid scale the reference plane, its
/// Gaussian-filtered mean μ₁ and filtered square, plus the denominator
/// Σ log10(1 + σ₁²/σn²), which reads the reference alone. Build it once per
/// reference frame and score every distorted frame against it; the pair half
/// then filters only the distorted frame and the cross product.
class VifpReference {
 public:
  /// Throws std::invalid_argument on an empty frame.
  explicit VifpReference(const Frame& reference);

  /// A plane of doubles, row by row.
  struct Plane {
    int w = 0;
    int h = 0;
    std::vector<double> px;
  };

 private:
  friend double vifp(const VifpReference& reference, const Frame& distorted);

  struct Scale {
    Plane image;   // the reference at this scale
    Plane mean;    // μ₁: image filtered
    Plane square;  // image² filtered
  };
  int width_;
  int height_;
  std::vector<Scale> scales_;  // the scales the pyramid reaches, at most 4
  double den_ = 0.0;
};

/// Pixel-domain Visual Information Fidelity (VIFp): a 4-scale pyramid; at
/// each scale, mutual-information ratios between perceived reference and
/// perceived distorted signals under a Gaussian channel model.
/// Range [0, 1] typically; 1 for identical, and 1 for a flat reference,
/// which has no information to lose. The Gaussian filters sum every output
/// as 0.0 + k[0]·v₀ + k[1]·v₁ + … in tap order, so splitting the reference
/// half off changes no bit. Throws std::invalid_argument unless both frames
/// have one size.
double vifp(const VifpReference& reference, const Frame& distorted);
double vifp(const Frame& reference, const Frame& distorted);

/// All three scores of one frame pair.
struct VideoQoe {
  double psnr = 0.0;
  double ssim = 0.0;
  double vifp = 0.0;
};

VideoQoe video_qoe(const Frame& reference, const Frame& distorted);

/// The same scores from the reference's SSIM window moments and VIFp half,
/// built once and shared by every distorted frame paired with it.
VideoQoe video_qoe(const Frame& reference, const SsimWindows& reference_windows,
                   const VifpReference& reference_planes, const Frame& distorted);

/// The reference a session's recordings are aligned to and scored against,
/// read on demand. Frame k and its SSIM window moments are built on first
/// read and kept for every later reader, so each is built at most once
/// however many recordings and shifts read it.
class ReferenceFrames {
 public:
  /// Frames 0 .. size-1 of `feed`, each rendered on first read. `feed` must
  /// outlive this.
  ReferenceFrames(const VideoFeed& feed, std::size_t size);
  /// Frames already in memory, read in place; `frames` must outlive this.
  explicit ReferenceFrames(const std::vector<Frame>& frames);

  std::size_t size() const { return size_; }
  /// Throws std::out_of_range for k >= size().
  const Frame& frame(std::size_t k);
  const SsimWindows& windows(std::size_t k);

 private:
  std::size_t size_;
  const VideoFeed* feed_ = nullptr;
  const std::vector<Frame>* frames_ = nullptr;
  std::vector<std::optional<Frame>> rendered_;
  std::vector<std::optional<SsimWindows>> windows_;
};

/// A recording scored against a shared reference at a frame shift: its
/// frame k + shift is paired with reference frame k.
struct ShiftedRecording {
  const std::vector<Frame>* frames;
  std::int64_t shift;
};

/// Mean QoE of each recording: the average of video_qoe(reference[k],
/// frames[k + shift]) for k = 0, stride, 2·stride, … below the common length
/// min(reference.size(), frames.size() - shift). Pairs are scored frame by
/// frame: reference frame k's windows and VIFp half are built once for every
/// recording that reaches k, and each recording's sums add in ascending k.
/// Only the frames a recording pairs are read, so the rest may be empty.
/// Throws std::invalid_argument when a shift is outside [0, frames.size()),
/// stride < 1, or an overlap is empty.
std::vector<VideoQoe> mean_video_qoe(ReferenceFrames& reference,
                                     const std::vector<ShiftedRecording>& recordings,
                                     std::int64_t stride);

}  // namespace vc::media::qoe
