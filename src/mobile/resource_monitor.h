// Resource monitor for a mobile client: samples CPU (every 3 s, as the
// paper's adb-based monitor does), integrates power, and computes the
// download data rate from the device's own pcap — producing the per-scenario
// statistics of Fig 19 and Table 4.
#pragma once

#include <vector>

#include "capture/rate_analyzer.h"
#include "capture/trace.h"
#include "client/vca_client.h"
#include "common/stats.h"
#include "mobile/cpu_model.h"
#include "mobile/power_model.h"

namespace vc::mobile {

class ResourceMonitor {
 public:
  ResourceMonitor(client::VcaClient& client, const DeviceProfile& device, MobileScenario scenario,
                  std::uint64_t seed);

  /// Starts sampling for `duration` (samples every 3 s).
  void start(SimDuration duration);
  bool running() const { return running_; }

  const std::vector<double>& cpu_samples() const { return cpu_samples_; }
  double battery_pct_per_hour() const { return meter_.battery_pct_per_hour(); }
  /// Mean L7 download rate over the monitored window.
  DataRate download_rate() const;
  DataRate upload_rate() const;

 private:
  void tick();
  WorkloadState current_workload() const;

  client::VcaClient& client_;
  DeviceProfile device_;
  MobileScenario scenario_;
  capture::PacketCapture capture_;
  CpuModel cpu_model_;
  PowerModel power_model_;
  PowerMeter meter_;

  SimTime window_start_{};
  SimTime end_{};
  bool running_ = false;
  std::size_t last_record_index_ = 0;
  std::vector<double> cpu_samples_;
};

}  // namespace vc::mobile
