#include "capture/qoe_infer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/json.h"
#include "net/host.h"

namespace vc::capture {
namespace {

/// Fragments separated by more than this belong to different frames; closer
/// ones coalesce into one burst. Must stay below the inter-frame interval
/// (e.g. 100 ms at 10 fps) and above in-frame serialization jitter.
constexpr SimDuration kMaxIntraFrameGap = millis(30);

bool is_video_fragment(const CaptureRecord& r, const QoeInferConfig& cfg) {
  return r.dir == net::Direction::kIncoming && r.protocol == net::Protocol::kUdp &&
         r.l7_len >= cfg.min_video_payload;
}

/// Nearest rung (ties resolve downward, like abr::TierLadder::nearest).
int nearest_tier(const std::vector<std::int64_t>& rungs, double bps) {
  int best = -1;
  double best_err = 0.0;
  for (int i = 0; i < static_cast<int>(rungs.size()); ++i) {
    const double err = std::abs(static_cast<double>(rungs[static_cast<std::size_t>(i)]) - bps);
    if (best < 0 || err < best_err) {
      best_err = err;
      best = i;
    }
  }
  return best;
}

}  // namespace

QoeInferencer::QoeInferencer(const Trace& trace, QoeInferConfig config)
    : trace_(&trace), config_(std::move(config)) {
  if (config_.window <= SimDuration::zero()) {
    throw std::invalid_argument{"QoeInferConfig.window must be positive"};
  }
  if (config_.freeze_threshold <= SimDuration::zero()) {
    throw std::invalid_argument{"QoeInferConfig.freeze_threshold must be positive"};
  }
}

QoeInferReport QoeInferencer::analyze() const {
  QoeInferReport out;

  // ---- frame grouping: one linear pass over the (time-ordered) records.
  // Out-of-order timestamps (tolerated by trace_io) would only perturb the
  // affected bursts, never crash: max() keeps burst ends monotone.
  // Bursts split on inter-packet time gaps only. The obvious refinement —
  // also ending a frame at its sub-MTU tail fragment — backfires in practice:
  // per-packet jitter routinely delivers the tail *mid-burst*, which would
  // split one real frame in two and inflate fps by >50%.
  bool in_burst = false;
  SimTime prev_video_time{};
  for (const CaptureRecord& r : trace_->records) {
    if (!is_video_fragment(r, config_)) continue;
    if (config_.analysis_start && r.timestamp < *config_.analysis_start) continue;
    if (config_.analysis_end && r.timestamp >= *config_.analysis_end) continue;
    ++out.video_packets;
    out.video_bytes += r.l7_len;

    const bool gap_break =
        in_burst && (r.timestamp - prev_video_time) > kMaxIntraFrameGap;
    if (!in_burst || gap_break) {
      InferredFrame f;
      f.start = r.timestamp;
      f.end = r.timestamp;
      f.bytes = r.l7_len;
      f.fragments = 1;
      out.frames.push_back(f);
      in_burst = true;
    } else {
      InferredFrame& f = out.frames.back();
      f.end = std::max(f.end, r.timestamp);
      f.bytes += r.l7_len;
      ++f.fragments;
    }
    prev_video_time = r.timestamp;
  }

  // ---- inter-frame spacing.
  std::vector<double> gaps_ms;
  gaps_ms.reserve(out.frames.size());
  for (std::size_t i = 1; i < out.frames.size(); ++i) {
    gaps_ms.push_back((out.frames[i].start - out.frames[i - 1].start).millis());
  }
  if (!gaps_ms.empty()) {
    std::vector<double> sorted = gaps_ms;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    out.median_interframe_ms =
        n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }

  // ---- analysis span.
  SimTime span_start{};
  SimTime span_end{};
  bool have_span = false;
  if (config_.analysis_start && config_.analysis_end) {
    span_start = *config_.analysis_start;
    span_end = *config_.analysis_end;
    have_span = span_end > span_start;
  } else if (!out.frames.empty()) {
    span_start = config_.analysis_start.value_or(out.frames.front().start);
    span_end = config_.analysis_end.value_or(out.frames.back().start +
                                             millis_f(out.median_interframe_ms));
    have_span = span_end > span_start;
  }

  if (have_span) {
    const double span_s = (span_end - span_start).seconds();
    out.overall_fps = static_cast<double>(out.frames.size()) / span_s;
    out.mean_video_kbps = static_cast<double>(out.video_bytes) * 8.0 / span_s / 1e3;
  }

  // ---- per-window fps / bitrate / tier timeline.
  if (have_span) {
    const std::int64_t w_us = config_.window.micros();
    const std::int64_t n_windows =
        ((span_end - span_start).micros() + w_us - 1) / w_us;
    out.windows.resize(static_cast<std::size_t>(std::max<std::int64_t>(n_windows, 0)));
    for (std::size_t k = 0; k < out.windows.size(); ++k) {
      out.windows[k].start = span_start + SimDuration{static_cast<std::int64_t>(k) * w_us};
    }
    std::vector<std::int64_t> window_bytes(out.windows.size(), 0);
    std::vector<std::int64_t> window_frames(out.windows.size(), 0);
    for (const InferredFrame& f : out.frames) {
      if (f.start < span_start || f.start >= span_end) continue;
      const auto k = static_cast<std::size_t>((f.start - span_start).micros() / w_us);
      ++window_frames[k];
      window_bytes[k] += f.bytes;
    }
    for (std::size_t k = 0; k < out.windows.size(); ++k) {
      // The last window may be clipped by the span end.
      const SimTime w_end = std::min(out.windows[k].start + config_.window, span_end);
      const double w_s = (w_end - out.windows[k].start).seconds();
      if (w_s <= 0.0) continue;
      out.windows[k].fps = static_cast<double>(window_frames[k]) / w_s;
      out.windows[k].video_kbps = static_cast<double>(window_bytes[k]) * 8.0 / w_s / 1e3;
      if (!config_.tier_rates_bps.empty() && window_bytes[k] > 0) {
        out.windows[k].tier =
            nearest_tier(config_.tier_rates_bps, out.windows[k].video_kbps * 1e3);
      }
    }
  }

  // ---- freezes: gaps between consecutive frame arrivals, plus the leading
  // and trailing gap when the caller pinned the analysis span.
  const auto add_freeze = [&](SimTime from, SimTime to) {
    if (to - from >= config_.freeze_threshold) {
      out.freezes.push_back(InferredFreeze{from, to});
    }
  };
  if (!out.frames.empty()) {
    if (config_.analysis_start) add_freeze(*config_.analysis_start, out.frames.front().start);
    for (std::size_t i = 1; i < out.frames.size(); ++i) {
      add_freeze(out.frames[i - 1].start, out.frames[i].start);
    }
    if (config_.analysis_end) add_freeze(out.frames.back().start, *config_.analysis_end);
  } else if (have_span) {
    add_freeze(span_start, span_end);  // no video at all: one long stall
  }

  return out;
}

std::string QoeInferReport::to_json() const {
  std::string s;
  s += "{\n  \"qoe_infer\": {\n";
  s += "    \"video_packets\": " + std::to_string(video_packets) + ",\n";
  s += "    \"video_bytes\": " + std::to_string(video_bytes) + ",\n";
  s += "    \"frames\": " + std::to_string(frames.size()) + ",\n";
  s += "    \"overall_fps\": " + json::format_number(overall_fps) + ",\n";
  s += "    \"mean_video_kbps\": " + json::format_number(mean_video_kbps) + ",\n";
  s += "    \"median_interframe_ms\": " + json::format_number(median_interframe_ms) + ",\n";
  s += "    \"windows\": [";
  for (std::size_t k = 0; k < windows.size(); ++k) {
    s += k == 0 ? "\n" : ",\n";
    s += "      {\"start_ms\": " + json::format_number(windows[k].start.millis()) +
         ", \"fps\": " + json::format_number(windows[k].fps) +
         ", \"kbps\": " + json::format_number(windows[k].video_kbps) +
         ", \"tier\": " + std::to_string(windows[k].tier) + "}";
  }
  s += windows.empty() ? "],\n" : "\n    ],\n";
  s += "    \"freezes\": [";
  for (std::size_t k = 0; k < freezes.size(); ++k) {
    s += k == 0 ? "\n" : ",\n";
    s += "      {\"start_ms\": " + json::format_number(freezes[k].start.millis()) +
         ", \"end_ms\": " + json::format_number(freezes[k].end.millis()) + "}";
  }
  s += freezes.empty() ? "]\n" : "\n    ]\n";
  s += "  }\n}\n";
  return s;
}

}  // namespace vc::capture
