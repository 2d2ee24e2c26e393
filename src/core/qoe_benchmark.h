// User-perceived QoE benchmark (Section 4.3, Figs 12, 14, 15, 16; and
// Section 4.4, Figs 17-18 and Table 1).
//
// A host VM broadcasts a padded low- or high-motion feed; N receivers render
// it full screen and desktop-record their screens. Recordings are cropped,
// resized and SSIM-aligned to the injected feed, then scored with
// PSNR/SSIM/VIFp. Host upload and receiver download rates come from the
// pcap-analog captures (Layer-7 payload, as in Fig 15). The bandwidth-cap
// experiments are the same session with an ingress cap on every receiver VM
// (the tc/ifb analog) and audio QoE: loudness-normalized, offset-aligned
// MOS-LQO of the received audio against the injected voice track.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "media/qoe/video_metrics.h"
#include "platform/rate_policy.h"

namespace vc::core {

/// The constants a session mixes into its seed. They decide every output
/// byte, so the QoE and bandwidth-cap sweeps each keep their own row.
enum class SeedSet { kQoe, kBwCap };

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
  /// Ingress cap on every receiver VM; unlimited arms no shaper.
  DataRate cap = DataRate::unlimited();
  /// Score each receiver's audio with MOS-LQO against the injected voice.
  bool score_audio = false;
  SeedSet seeds = SeedSet::kQoe;
};

/// A two-party call under a receiver ingress cap (Section 4.4): one receiver
/// in US-East, audio scoring and the bandwidth-cap seed row.
QoeBenchmarkConfig bwcap_config(DataRate cap);

/// One receiver's scores from a single session. Video QoE needs a
/// long-enough recording; delivery ratio needs the host to have sent frames;
/// audio QoE needs score_audio and received samples.
struct QoeReceiverResult {
  double download_kbps = 0.0;
  /// Share of the bytes the ingress cap dropped; 0 without a cap.
  double drop_fraction = 0.0;
  bool has_delivery_ratio = false;
  double delivery_ratio = 0.0;
  bool has_video_qoe = false;
  double psnr = 0.0;
  double ssim = 0.0;
  double vifp = 0.0;
  bool has_audio_qoe = false;
  double mos_lqo = 0.0;
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
/// per-session seeds (the Fig 12/16 and Fig 17-18 sweeps run these through
/// runner::ExperimentRunner). Throws std::invalid_argument for an empty
/// receiver list, a media_duration that is not positive, padded dimensions
/// that are not multiples of 8 or a metric_stride below 1, before anything
/// is simulated.
QoeSessionResult run_qoe_session(const QoeBenchmarkConfig& config, std::uint64_t seed);

/// Receiver site lists used by the paper's US and Europe QoE experiments.
std::vector<std::string> us_qoe_receiver_sites(int n);
std::vector<std::string> europe_qoe_receiver_sites(int n);

}  // namespace vc::core
