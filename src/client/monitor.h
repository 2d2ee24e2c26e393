// Client monitor (Fig 1): captures the client's traffic with a tcpdump
// analog and, in an "active probing" pipeline, discovers streaming service
// endpoints from the live packet stream and RTT-probes them.
#pragma once

#include <memory>
#include <optional>

#include "capture/endpoint_discovery.h"
#include "capture/trace.h"
#include "client/rtt_prober.h"
#include "net/network.h"

namespace vc::client {

class ClientMonitor {
 public:
  struct Config {
    /// Clock offset of this VM (cloud time sync keeps it ~±1 ms).
    SimDuration clock_offset{};
    /// Wait before first discovery attempt (streams must ramp up).
    SimDuration discovery_delay = seconds(3);
    /// Probing cadence and count once an endpoint is found.
    SimDuration probe_interval = millis(900);
    int probe_count = 100;
  };

  /// The prober reports into the network's instruments (`rtt.probe.*`).
  explicit ClientMonitor(net::Host& host);  // default config
  ClientMonitor(net::Host& host, Config config);

  /// Starts the active-probing pipeline: after discovery_delay, discovers
  /// the heaviest streaming endpoint in the capture so far and probes it.
  void start_active_probing();

  /// The capture so far (the paper dumps this to a file for offline
  /// analysis; see capture::write_trace_file).
  capture::Trace trace() const { return capture_.trace(); }

  /// Discovered media endpoint, if any yet.
  const std::optional<net::Endpoint>& media_endpoint() const { return media_endpoint_; }
  const RttProber& prober() const { return prober_; }

 private:
  void try_discover();

  net::Host& host_;
  Config config_;
  capture::PacketCapture capture_;
  RttProber prober_;
  std::optional<net::Endpoint> media_endpoint_;
  int discovery_attempts_ = 0;
};

}  // namespace vc::client
