// Full-reference video quality metrics, as computed by the VQMT tool used in
// the paper (Section 4.3): PSNR, SSIM (Wang et al. 2004) and pixel-domain
// VIF (Sheikh & Bovik 2006). Each is a per-frame-pair score; session QoE is
// the mean over frames.
#pragma once

#include <cstdint>
#include <vector>

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

/// Pixel-domain Visual Information Fidelity (VIFp): a 4-scale pyramid; at
/// each scale, mutual-information ratios between perceived reference and
/// perceived distorted signals under a Gaussian channel model.
/// Range [0, 1] typically; 1 for identical.
double vifp(const Frame& reference, const Frame& distorted);

/// All three at once (shared setup), plus helpers for sequences.
struct VideoQoe {
  double psnr = 0.0;
  double ssim = 0.0;
  double vifp = 0.0;
};

VideoQoe video_qoe(const Frame& reference, const Frame& distorted);

/// Mean QoE of video_qoe(reference[k], recording[k + shift]) for k = 0,
/// stride, 2·stride, … below the common length min(reference.size(),
/// recording.size() - shift): the scoring step after best_temporal_shift,
/// read in place. Throws std::invalid_argument when shift is outside
/// [0, recording.size()), stride < 1, or the overlap is empty.
VideoQoe mean_video_qoe(const std::vector<Frame>& reference, const std::vector<Frame>& recording,
                        std::int64_t shift, std::int64_t stride);

}  // namespace vc::media::qoe
