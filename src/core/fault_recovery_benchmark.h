// Fault-recovery benchmark: one 10 fps flash-feed session per run (a US-East
// host, passive participants in US-West and US-Central) with a scripted
// mid-call fault (default: the session relay crashes and restarts), measuring
// how the platform's clients ride it out — time to reconnect, packets lost in
// the outage, and the streaming-lag distribution before / during / after the
// fault window. The paper stops at static impairments (Figs 17–18); this is
// the dynamic counterpart its Section 6 future work gestures at.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/metrics_timeline.h"
#include "common/tracer.h"
#include "fault/fault_plan.h"
#include "platform/base_platform.h"

namespace vc::core {

struct FaultRecoveryConfig {
  platform::PlatformId platform = platform::PlatformId::kZoom;
  SimDuration session_duration = seconds(40);
  /// Fault window, relative to media start (the plan's arm origin) — the
  /// same plan shape at every seed, which is what makes the outage sweep a
  /// controlled experiment.
  SimDuration outage_start = seconds(10);
  SimDuration outage_duration = seconds(3);
  /// Receiver flash events inside the outage window or within this grace
  /// after it count as the "during" phase (the recovery tail — backoff,
  /// re-join, re-subscription — is attributed to the fault, not to steady
  /// state).
  SimDuration recovery_grace = seconds(5);
  std::uint64_t seed = 1;
  /// Set: replaces the default timeline (crash relay 0 at outage_start for
  /// outage_duration) with an arbitrary plan, empty included.
  std::optional<fault::FaultPlan> custom_plan;
  /// false = control run: no plan is armed at all. Paired with an armed
  /// empty plan this is the A side of the ≤2% empty-plan overhead gate.
  bool inject = true;
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  /// Optional periodic sampler, armed over the session (plus a quiescent
  /// tail) so the outage window is visible as a time-series; sampled against
  /// `metrics` when set, else the run's local registry.
  MetricsTimeline* timeline = nullptr;
};

struct FaultRecoveryResult {
  platform::PlatformId platform{};
  int clients = 0;  // host + participants
  std::int64_t disconnects = 0;
  std::int64_t reconnects = 0;
  std::int64_t reconnect_attempts = 0;
  std::int64_t reconnect_giveups = 0;
  double mean_time_to_reconnect_ms = 0.0;
  double max_time_to_reconnect_ms = 0.0;
  /// Packets that arrived at crashed relays (summed across the platform's
  /// relays) — the outage's direct loss.
  std::int64_t packets_lost_in_outage = 0;
  /// Worst flash lag observed at/after the fault (the lag-spike HWM).
  double lag_spike_hwm_ms = 0.0;
  /// Phase boundaries in absolute sim time (fixed when media starts), so
  /// callers can bucket timeline samples / SLO breach events by phase.
  SimTime outage_begin_abs{};
  SimTime recovery_end_abs{};
  std::vector<double> lags_before_ms;
  std::vector<double> lags_during_ms;  // fault window + recovery grace
  std::vector<double> lags_after_ms;
};

FaultRecoveryResult run_fault_recovery_benchmark(const FaultRecoveryConfig& config);

}  // namespace vc::core
