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

#include "common/stats.h"
#include "common/tracer.h"
#include "common/units.h"
#include "mobile/device.h"
#include "platform/rate_policy.h"

namespace vc::core {

struct MobileBenchmarkConfig {
  platform::PlatformId platform = platform::PlatformId::kZoom;
  mobile::MobileScenario scenario = mobile::MobileScenario::kLM;
  int repetitions = 3;
  SimDuration duration = seconds(60);
  std::uint64_t seed = 9;
  /// Intra-session relay fan-out sharding (PlatformConfig::fan_out_shards);
  /// 0 = serial, any K is byte-identical.
  int fan_out_shards = 0;
};

struct MobileDeviceResult {
  std::string device;
  std::vector<double> cpu_samples;     // pooled over repetitions
  BoxplotSummary cpu;
  RunningStats download_kbps;
  RunningStats upload_kbps;
  RunningStats battery_pct_per_hour;   // meaningful for the J3 (power meter)
};

struct MobileBenchmarkResult {
  platform::PlatformId platform{};
  mobile::MobileScenario scenario{};
  MobileDeviceResult s10;
  MobileDeviceResult j3;
};

MobileBenchmarkResult run_mobile_benchmark(const MobileBenchmarkConfig& config);

/// One repetition of the mobile scenario as a self-contained session (its
/// own testbed/platform world from `seed`, ignoring config.seed /
/// config.repetitions) — the per-task unit parallel experiment runners
/// drive; run_mobile_benchmark is the serial aggregation of these.
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
  int repetitions = 2;
  SimDuration duration = seconds(45);
  std::uint64_t seed = 13;
  /// Intra-session relay fan-out sharding (PlatformConfig::fan_out_shards);
  /// 0 = serial, any K is byte-identical.
  int fan_out_shards = 0;
  /// Optional flight recorder wired into the event loop, links/shapers,
  /// relays and clients (see LagBenchmarkConfig::tracer).
  Tracer* tracer = nullptr;
};

struct ScaleBenchmarkResult {
  platform::PlatformId platform{};
  int n_total = 0;
  platform::ViewMode phone_view{};
  /// Mean data rate (Mbps) and median CPU (%) per device, as in Table 4.
  double s10_rate_mbps = 0.0;
  double j3_rate_mbps = 0.0;
  double s10_cpu_median = 0.0;
  double j3_cpu_median = 0.0;
};

ScaleBenchmarkResult run_scale_benchmark(const ScaleBenchmarkConfig& config);

/// One repetition of the scale scenario as a self-contained session: builds
/// its own testbed/platform world from `seed` (ignoring config.seed /
/// config.repetitions), so parallel experiment runners can drive it with
/// per-task seed streams.
struct ScaleSessionResult {
  std::vector<double> s10_cpu;
  std::vector<double> j3_cpu;
  double s10_rate_mbps = 0.0;
  double j3_rate_mbps = 0.0;
};

ScaleSessionResult run_scale_session(const ScaleBenchmarkConfig& config, std::uint64_t seed);

}  // namespace vc::core
