// Streaming-lag benchmark (Section 4.2; Figs 2, 4–11; the endpoint counts of
// Fig 3's discussion).
//
// One VM hosts meetings and broadcasts the periodic-flash feed; six VMs join
// with no media of their own. Lags come from the big-packet method over the
// host/participant captures; RTTs from each client monitor's active-probing
// pipeline against its discovered service endpoint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capture/trace.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "common/tracer.h"
#include "platform/base_platform.h"

namespace vc::core {

struct LagBenchmarkConfig {
  platform::PlatformId platform = platform::PlatformId::kZoom;
  std::string host_site = "US-East";
  /// Sites of the six passive participants (duplicates allowed: the paper
  /// runs two VMs in US-East and two in US-West).
  std::vector<std::string> participant_sites;
  int sessions = 20;
  SimDuration session_duration = seconds(120);
  /// Webex subscription tier (Section 6: the paid tier provisions relays
  /// near the meeting, collapsing the detour lags of the free tier).
  platform::WebexTier webex_tier = platform::WebexTier::kFree;
  double fps = 10.0;
  std::uint64_t seed = 1;
  /// Optional sink for instrumentation: the network/event core, platform,
  /// session orchestrator and client monitors attach here, so runner-based
  /// sweeps get event-loop, delivery-batch and RTT-probe metrics per task.
  MetricsRegistry* metrics = nullptr;
  /// Optional flight recorder: wired into the event loop, links/shapers,
  /// relays, codecs and RTT probers, so traced runner sweeps capture
  /// loop.* / net.link.* / shaper.* / relay.* / codec.* / rtt.* records.
  Tracer* tracer = nullptr;
};

/// Per-participant-VM aggregate across all sessions.
struct ParticipantLagResult {
  std::string label;                       // site name, disambiguated
  std::vector<double> lags_ms;             // pooled flash lags
  std::vector<double> session_rtt_ms;      // mean probe RTT per session
  std::size_t distinct_endpoints = 0;      // across this client's sessions
};

struct LagBenchmarkResult {
  platform::PlatformId platform{};
  std::string host_site;
  std::vector<ParticipantLagResult> participants;
  double mean_distinct_endpoints = 0.0;    // Fig 3 discussion: 20 / 19.5 / 1.8
  std::uint16_t dominant_media_port = 0;   // 8801 / 9000 / 19305
  /// Host + first participant traces of the final session (Fig 2 timeline).
  capture::Trace sample_sender_trace;
  capture::Trace sample_receiver_trace;
};

LagBenchmarkResult run_lag_benchmark(const LagBenchmarkConfig& config);

/// The paper's US scenarios (Figs 4–5): six participants for a US host.
std::vector<std::string> us_participant_sites(const std::string& host_site);
/// The Europe scenarios (Figs 6–7).
std::vector<std::string> europe_participant_sites(const std::string& host_site);

}  // namespace vc::core
