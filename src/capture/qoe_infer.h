// Header-free QoE inference from packet traces.
//
// Estimates per-window video frame rate, a bitrate-tier timeline and freeze
// events from nothing but what a passive capture sees: CaptureRecord
// timestamps, directions and lengths (Sharma et al., arXiv 2306.01194, infer
// the same quantities from real Zoom/Webex/Meet pcaps). No payload, no
// application headers and no simulator internals ever cross this boundary —
// the same black-box discipline as RateAnalyzer and LagDetector. What the
// real-world estimator could never do is check itself: our harness computes
// codec-side ground truth for the same sessions, and bench_qoe_inference
// scores these estimates against it (frame-rate MAE, tier-timeline accuracy,
// freeze precision/recall) as a CI-enforced contract.
//
// Method, per Section 3 of Sharma et al. adapted to the vcbench wire shape:
//  - video classification: incoming UDP records with l7_len >=
//    min_video_payload are video fragment candidates (audio frames and
//    control reports ride far smaller packets);
//  - frame grouping: consecutive video fragments belong to one frame burst
//    until an inter-packet gap above 30 ms (qoe_infer.cpp) ends the burst
//    (tail-fragment splitting is deliberately NOT used: jitter reorders the
//    sub-MTU tail into the middle of its burst often enough to double-count
//    frames);
//  - frame rate: burst starts per window;
//  - bitrate tier: video payload bits per window snapped to the nearest rung
//    of a caller-supplied rate table (e.g. platform::tier_ladder rates —
//    passed as plain numbers precisely so this layer needs no platform
//    dependency);
//  - freezes: inter-frame gaps above freeze_threshold, including a leading /
//    trailing gap against the configured analysis span.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "capture/trace.h"

namespace vc::capture {

struct QoeInferConfig {
  /// L7 length at or above which an incoming UDP record is treated as a
  /// video fragment. Sized between the largest audio frame (~225 B at
  /// 90 Kbps / 20 ms) and the smallest full video fragment.
  std::int64_t min_video_payload = 300;
  /// An inter-frame gap at or above this is reported as a freeze event.
  SimDuration freeze_threshold = millis(500);
  /// Timeline bucketing for the per-window fps / bitrate-tier estimates.
  SimDuration window = seconds(1);
  /// Optional ascending bitrate rung table (bits/s) the per-window rate is
  /// snapped onto — pass platform::tier_ladder(...) rates. Empty: tier -1.
  std::vector<std::int64_t> tier_rates_bps;
  /// Analysis span. Unset: [first video packet, last video packet]. Set
  /// (benchmarks pass the media window), leading/trailing frame gaps against
  /// the span bounds count toward freezes too.
  std::optional<SimTime> analysis_start;
  std::optional<SimTime> analysis_end;
};

/// One inferred video frame: the burst of fragments it arrived as.
struct InferredFrame {
  SimTime start{};       // first fragment's timestamp
  SimTime end{};         // last fragment's timestamp
  std::int64_t bytes = 0;
  int fragments = 0;
};

/// One timeline bucket of the estimate.
struct QoeInferWindow {
  SimTime start{};
  double fps = 0.0;
  double video_kbps = 0.0;
  /// Index into QoeInferConfig::tier_rates_bps (nearest rung, ties resolve
  /// downward); -1 when no table was given or the window carried no video.
  int tier = -1;
};

/// One inferred freeze: no frame arrived for freeze_threshold or longer.
struct InferredFreeze {
  SimTime start{};  // last frame before the stall (or analysis_start)
  SimTime end{};    // first frame after it (or analysis_end)
  SimDuration duration() const { return end - start; }
};

struct QoeInferReport {
  std::int64_t video_packets = 0;
  std::int64_t video_bytes = 0;
  std::vector<InferredFrame> frames;
  std::vector<QoeInferWindow> windows;
  std::vector<InferredFreeze> freezes;
  /// Frames over the analysis span (configured span, else first→last frame
  /// plus one median inter-frame interval so a lone cadence estimates its
  /// own rate); 0 when nothing was inferred.
  double overall_fps = 0.0;
  /// Video payload bits over the same span.
  double mean_video_kbps = 0.0;
  /// Median inter-frame spacing (ms); 0 with fewer than two frames.
  double median_interframe_ms = 0.0;

  /// Deterministic JSON (json::format_number): same trace ⇒ byte-identical
  /// text, which the determinism suite pins at any thread count × fleet size.
  std::string to_json() const;
};

/// Pure, allocation-light estimator over one capture. Holds only a borrowed
/// trace pointer: analyze() is const, deterministic, and replica instances
/// over the same trace agree byte-for-byte (property-tested).
class QoeInferencer {
 public:
  explicit QoeInferencer(const Trace& trace, QoeInferConfig config = {});

  QoeInferReport analyze() const;

  const QoeInferConfig& config() const { return config_; }

 private:
  const Trace* trace_;
  QoeInferConfig config_;
};

}  // namespace vc::capture
