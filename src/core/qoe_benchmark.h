// User-perceived video QoE benchmark (Section 4.3; Figs 12, 14, 15, 16).
//
// A host VM broadcasts a padded low- or high-motion feed; N receivers render
// it full screen and desktop-record their screens. Recordings are cropped,
// resized and SSIM-aligned to the injected feed, then scored with
// PSNR/SSIM/VIFp. Host upload and receiver download rates come from the
// pcap-analog captures (Layer-7 payload, as in Fig 15).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "media/qoe/video_metrics.h"
#include "platform/rate_policy.h"

namespace vc::core {

struct QoeBenchmarkConfig {
  platform::PlatformId platform = platform::PlatformId::kZoom;
  platform::MotionClass motion = platform::MotionClass::kLowMotion;
  std::string host_site = "US-East";
  /// Receiver sites; size determines N (the paper sweeps 1..5 receivers).
  std::vector<std::string> receiver_sites = {"US-West"};
  SimDuration media_duration = seconds(15);
  // Feed geometry: content + protective padding (Fig 13). Padded dimensions
  // must be multiples of 8.
  int content_width = 256;
  int content_height = 192;
  int padding = 24;
  double fps = 10.0;
  /// Score every k-th aligned frame pair (QoE means are stable under
  /// subsampling; full-rate scoring is available by setting 1).
  int metric_stride = 4;
  /// When false, skip desktop recording and pixel scoring entirely and
  /// report traffic rates only (Fig 15 mode).
  bool score_video = true;
};

/// One receiver's scores from a single session. Video QoE needs a
/// long-enough recording; delivery ratio needs the host to have sent frames.
struct QoeReceiverResult {
  double download_kbps = 0.0;
  bool has_delivery_ratio = false;
  double delivery_ratio = 0.0;
  bool has_video_qoe = false;
  double psnr = 0.0;
  double ssim = 0.0;
  double vifp = 0.0;
};

struct QoeSessionResult {
  double upload_kbps = 0.0;
  /// Mean receiver download.
  double session_download_kbps = 0.0;
  /// Index-aligned with config.receiver_sites.
  std::vector<QoeReceiverResult> receivers;
};

/// One QoE session as a self-contained world built from `seed`, the only
/// entry point of the scenario: repeated sessions are independent worlds at
/// per-session seeds (the Fig 12/16 sweep runs these through
/// runner::ExperimentRunner). Throws std::invalid_argument for an empty
/// receiver list, padded dimensions that are not multiples of 8 or a
/// metric_stride below 1, before anything is simulated.
QoeSessionResult run_qoe_session(const QoeBenchmarkConfig& config, std::uint64_t seed);

/// Receiver site lists used by the paper's US and Europe QoE experiments.
std::vector<std::string> us_qoe_receiver_sites(int n);
std::vector<std::string> europe_qoe_receiver_sites(int n);

}  // namespace vc::core
