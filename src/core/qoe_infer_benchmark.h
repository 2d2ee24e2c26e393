// Header-free QoE inference, scored against ground truth.
//
// One broadcast session per run: a US-East host VM streams a low-motion
// 96x72 feed (8 px padding, 10 fps) to one US-West receiver whose last-mile
// link follows a shaper profile and a scripted
// fault::FaultPlan (link outages — the freeze ground truth). The receiver's
// packet capture is handed to capture::QoeInferencer, which sees nothing but
// record timestamps/lengths; the session separately keeps the codec-side
// truth (frames actually completed, the sender's true encode-target
// timeline, the scripted outage windows) and joins the two into accuracy
// metrics: frame-rate absolute error, bitrate-tier-timeline accuracy, and
// freeze precision/recall. bench_qoe_inference sweeps platform × shaper
// profile × outage plan on runner::ExperimentRunner and gates the pooled
// accuracy in CI.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/tracer.h"
#include "platform/rate_policy.h"

namespace vc::core {

/// Last-mile shaper profile installed on the receiving VM's ingress.
enum class InferShaperProfile {
  kUnshaped,    // no ingress shaping
  kDsl,         // 3 Mbps cap: shapes burst spacing without starving anyone
  kCongested,   // 1.5 Mbps cap: near/below some platforms' low-motion rate
};

const char* infer_shaper_profile_name(InferShaperProfile profile);

struct QoeInferBenchmarkConfig {
  platform::PlatformId platform = platform::PlatformId::kZoom;
  InferShaperProfile shaper = InferShaperProfile::kUnshaped;
  /// Scripted receiver-link outages, (start, duration) relative to media
  /// start — compiled into a FaultPlan armed at media start. These windows
  /// ARE the freeze ground truth the inferred freezes are scored against.
  std::vector<std::pair<SimDuration, SimDuration>> outages;
  SimDuration media_duration = seconds(20);
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

struct QoeInferSessionResult {
  // --- header-free estimate (trace-only) ---
  double inferred_fps = 0.0;
  double inferred_video_kbps = 0.0;
  std::int64_t inferred_frames = 0;
  int inferred_freezes = 0;
  // --- ground truth (simulator-side) ---
  double truth_fps = 0.0;        // frames completed / media window
  double truth_mean_target_kbps = 0.0;
  int truth_freezes = 0;         // scripted outage windows
  // --- joined accuracy ---
  double fps_abs_err = 0.0;
  /// Fraction of comparable windows (outside outages+grace, carrying video)
  /// whose inferred ladder rung equals the rung of the sender's true target.
  double tier_accuracy = 0.0;
  int tier_windows = 0;  // comparable windows joined
  double freeze_precision = 1.0;  // 1.0 when nothing was inferred
  double freeze_recall = 1.0;     // 1.0 when nothing was scripted
  /// The inferencer's structured JSON report (deterministic).
  std::string report_json;
};

/// One inference session as a self-contained world built from `seed`,
/// runnable from ExperimentRunner task lambdas.
QoeInferSessionResult run_qoe_inference_session(const QoeInferBenchmarkConfig& config,
                                                std::uint64_t seed);

}  // namespace vc::core
