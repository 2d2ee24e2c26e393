// Mobile resource-consumption benchmarks (Section 5; Fig 19 and Table 4).
//
// A US-East cloud VM hosts the meeting and streams the low-/high-motion
// feed; the two phones (S10 and J3) join from a residential east-coast
// network and are monitored for CPU, download rate, and battery drain under
// the five device/UI scenarios. The scale variant adds cloud VM participants
// that all stream high-motion video simultaneously (N ∈ {3, 6, 11}).
#pragma once

#include <cstdint>
#include <vector>

#include "common/tracer.h"
#include "common/units.h"
#include "mobile/device.h"
#include "platform/rate_policy.h"

namespace vc::core {

struct MobileBenchmarkConfig {
  platform::PlatformId platform = platform::PlatformId::kZoom;
  mobile::MobileScenario scenario = mobile::MobileScenario::kLM;
  SimDuration duration = seconds(60);
};

/// One repetition of the mobile scenario as a self-contained world built
/// from `seed`, the only entry point of the scenario: repetitions are
/// independent worlds at per-repetition seeds (the Fig 19 sweep runs these
/// through runner::ExperimentRunner).
struct MobileSessionResult {
  std::vector<double> s10_cpu;
  std::vector<double> j3_cpu;
  double s10_download_kbps = 0.0;
  double s10_upload_kbps = 0.0;
  double s10_battery_pct_per_hour = 0.0;
  double j3_download_kbps = 0.0;
  double j3_upload_kbps = 0.0;
  double j3_battery_pct_per_hour = 0.0;
};

MobileSessionResult run_mobile_session(const MobileBenchmarkConfig& config, std::uint64_t seed);

/// Table 4: one host VM + two phones + (n_total - 3) extra VM participants,
/// everyone streaming high-motion video; phones in full-screen or gallery.
struct ScaleBenchmarkConfig {
  platform::PlatformId platform = platform::PlatformId::kZoom;
  int n_total = 3;  // 3, 6 or 11
  platform::ViewMode phone_view = platform::ViewMode::kFullScreen;
  SimDuration duration = seconds(45);
  /// Optional flight recorder wired into the event loop, links/shapers,
  /// relays and clients (see LagBenchmarkConfig::tracer).
  Tracer* tracer = nullptr;
};

/// One repetition of the scale scenario as a self-contained world built
/// from `seed`, the only entry point of the scenario (Table 4 runs these
/// through runner::ExperimentRunner).
struct ScaleSessionResult {
  std::vector<double> s10_cpu;
  std::vector<double> j3_cpu;
  double s10_rate_mbps = 0.0;
  double j3_rate_mbps = 0.0;
};

ScaleSessionResult run_scale_session(const ScaleBenchmarkConfig& config, std::uint64_t seed);

}  // namespace vc::core
