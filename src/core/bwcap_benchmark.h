// Streaming under bandwidth constraints (Section 4.4; Figs 17–18).
//
// A two-party session with an artificial ingress cap (the tc/ifb analog) on
// the receiving VM. Video QoE comes from the recorded-screen pipeline; audio
// QoE from loudness-normalized, offset-aligned MOS-LQO scoring of the
// received audio against the injected voice track.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"
#include "platform/rate_policy.h"

namespace vc::core {

struct BwCapBenchmarkConfig {
  platform::PlatformId platform = platform::PlatformId::kZoom;
  platform::MotionClass motion = platform::MotionClass::kLowMotion;
  /// Ingress cap on the receiver; DataRate::unlimited() for the baseline.
  DataRate cap = DataRate::unlimited();
  std::string host_site = "US-East";
  SimDuration media_duration = seconds(15);
  int content_width = 256;
  int content_height = 192;
  int padding = 24;
  double fps = 10.0;
  int metric_stride = 4;
};

/// One capped session as a self-contained world built from `seed`, the only
/// entry point of the scenario: repeated sessions are independent worlds at
/// per-session seeds (the Fig 17–18 sweep runs these through
/// runner::ExperimentRunner). Video QoE needs enough recorded frames; audio
/// QoE needs received samples.
struct BwCapSessionResult {
  bool has_video_qoe = false;
  double psnr = 0.0;
  double ssim = 0.0;
  double vifp = 0.0;
  bool has_audio_qoe = false;
  double mos_lqo = 0.0;
  bool has_delivery_ratio = false;
  double delivery_ratio = 0.0;
  double download_kbps = 0.0;
  double drop_fraction = 0.0;
};

BwCapSessionResult run_bwcap_session(const BwCapBenchmarkConfig& config, std::uint64_t seed);

}  // namespace vc::core
