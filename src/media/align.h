// Post-processing of recorded sessions before QoE scoring (Section 4.3):
// crop out the protective padding, resize to the injected feed's layout, and
// synchronize start/end by maximizing per-frame SSIM.
#pragma once

#include <cstdint>
#include <vector>

#include "media/frame.h"
#include "media/qoe/video_metrics.h"

namespace vc::media {

/// A desktop-recorded video: frames at a fixed rate.
struct RecordedVideo {
  double fps = 15.0;
  std::vector<Frame> frames;
};

/// Crops `pad` pixels from each side of every frame and resizes to
/// (target_w, target_h), mirroring the paper's crop+resize step.
RecordedVideo crop_and_resize(const RecordedVideo& recording, int pad, int target_w, int target_h);

/// Finds the frame shift (0..max_shift) of `recording` relative to
/// `reference` that maximizes mean SSIM over up to `probe_frames` sampled
/// pairs — the "trim so per-frame SSIM is maximized" step. Reference frames
/// and their SSIM window moments are read through `reference`, so a search
/// builds only the ones it probes, and a reference shared by several
/// recordings builds each once. Throws std::invalid_argument on an empty
/// sequence, max_shift < 0, probe_frames < 1, or a probed pair of frames
/// that differ in size or are smaller than 8×8.
std::int64_t best_temporal_shift(qoe::ReferenceFrames& reference,
                                 const std::vector<Frame>& recording, std::int64_t max_shift,
                                 std::int64_t probe_frames = 20);

/// The same search against reference frames in memory.
std::int64_t best_temporal_shift(const std::vector<Frame>& reference,
                                 const std::vector<Frame>& recording, std::int64_t max_shift,
                                 std::int64_t probe_frames = 20);

}  // namespace vc::media
