#include "media/align.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace vc::media {

RecordedVideo crop_and_resize(const RecordedVideo& recording, int pad, int target_w, int target_h) {
  RecordedVideo out;
  out.fps = recording.fps;
  out.frames.reserve(recording.frames.size());
  for (const auto& f : recording.frames) {
    if (f.width() <= 2 * pad || f.height() <= 2 * pad) {
      throw std::invalid_argument{"padding exceeds frame size"};
    }
    Frame inner = pad > 0 ? f.crop(pad, pad, f.width() - 2 * pad, f.height() - 2 * pad) : f;
    out.frames.push_back(inner.resized(target_w, target_h));
  }
  return out;
}

std::int64_t best_temporal_shift(qoe::ReferenceFrames& reference,
                                 const std::vector<Frame>& recording, std::int64_t max_shift,
                                 std::int64_t probe_frames) {
  if (reference.size() == 0 || recording.empty()) throw std::invalid_argument{"empty sequence"};
  if (max_shift < 0) throw std::invalid_argument{"negative max_shift"};
  if (probe_frames < 1) throw std::invalid_argument{"probe_frames must be >= 1"};
  // Each probed recording frame's SSIM window moments, built on first use
  // and shared by every shift that probes the frame again.
  std::vector<std::optional<qoe::SsimWindows>> recording_windows(recording.size());
  double best = -2.0;
  std::int64_t best_shift = 0;
  for (std::int64_t shift = 0; shift <= max_shift; ++shift) {
    const auto common = static_cast<std::int64_t>(
        std::min(reference.size(), recording.size() - std::min<std::size_t>(
                                       static_cast<std::size_t>(shift), recording.size())));
    if (common <= 0) break;
    const std::int64_t stride = std::max<std::int64_t>(1, common / probe_frames);
    double acc = 0.0;
    std::int64_t n = 0;
    for (std::int64_t i = 0; i < common; i += stride) {
      const auto r = static_cast<std::size_t>(i);
      const auto d = static_cast<std::size_t>(i + shift);
      if (!recording_windows[d]) recording_windows[d].emplace(recording[d]);
      acc += qoe::ssim(reference.frame(r), reference.windows(r), recording[d],
                       *recording_windows[d]);
      ++n;
    }
    const double score = acc / static_cast<double>(n);
    if (score > best) {
      best = score;
      best_shift = shift;
    }
  }
  return best_shift;
}

std::int64_t best_temporal_shift(const std::vector<Frame>& reference,
                                 const std::vector<Frame>& recording, std::int64_t max_shift,
                                 std::int64_t probe_frames) {
  qoe::ReferenceFrames frames{reference};
  return best_temporal_shift(frames, recording, max_shift, probe_frames);
}

}  // namespace vc::media
