// City-scale fleet benchmark: one task simulates a whole city's worth of
// concurrent meetings on a federated relay fleet — the scale regime the
// single-session benchmarks cannot reach and the ROADMAP's fleet-sweep item
// calls for. Each run stands up one platform + one fleet::RelayFleet, then
// launches `meetings` staggered sessions (one host broadcasting a small
// video feed to `participants_per_meeting` passive receivers each), with
// per-packet one-way video lag sampled at the receivers' taps. Throughput
// (simulated events and wire bytes, turned into events/sec / bytes/sec by
// the runner's rate_counters) is a first-class output next to lag quantiles.
//
// The same entry point also runs the fleet-of-1 equivalence gate's A side:
// use_fleet=false falls back to the platform's native relay steering, which
// a fleet of size 1 must reproduce byte-identically (see bench_city_scale
// --gate).
#pragma once

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/tracer.h"
#include "fleet/relay_fleet.h"
#include "platform/base_platform.h"

namespace vc::core {

struct CityScaleConfig {
  platform::PlatformId platform = platform::PlatformId::kWebex;
  bool use_fleet = true;
  /// Register the fleet's per-slot gauges / trunk counters in the metrics
  /// registry. The fleet-of-1 gate turns this off on its fleet side so the
  /// report carries exactly the native run's instrument set (the gauges
  /// would otherwise be a trivially-expected byte difference).
  bool attach_fleet_metrics = true;
  int fleet_size = 2;
  fleet::PlacementPolicy policy = fleet::PlacementPolicy::kRoundRobin;
  /// Members per meeting shard before overflow splits it across trunked
  /// relays; 0 = never split.
  int overflow_shard_size = 0;
  int meetings = 18;
  int participants_per_meeting = 7;  // receivers; +1 broadcasting host each
  /// Consecutive meetings start this far apart (a city's sessions are not
  /// synchronized), bounding the join burst.
  SimDuration meeting_stagger = millis(700);
  SimDuration media_duration = seconds(12);
  int feed_width = 160;
  int feed_height = 120;
  double fps = 10.0;
  /// Crash-failover scene: crash allocator relay 0 mid-call and let the
  /// balancer re-home its meetings onto survivors (clients reconnect with
  /// the controller's backoff). Timed relative to the FIRST meeting's media
  /// start.
  bool inject_crash = false;
  SimDuration outage_start = seconds(4);
  SimDuration outage_duration = seconds(2);
  std::uint64_t seed = 1;
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

struct CityScaleResult {
  int clients = 0;  // hosts + receivers across all meetings
  int meetings_completed = 0;
  int join_timeouts = 0;
  /// Simulation throughput inputs: events executed on the loop and wire
  /// bytes sent network-wide. Deterministic (aggregate-safe); the runner
  /// divides by wall-clock for the events/sec / bytes/sec rates.
  std::int64_t sim_events = 0;
  std::int64_t sim_bytes = 0;
  /// Trunk totals across the fleet (0 when untrunked / native).
  std::int64_t trunk_delivered_packets = 0;
  std::int64_t trunk_dropped_packets = 0;
  std::int64_t packets_lost_in_outage = 0;
  std::int64_t reconnects = 0;
  std::int64_t relays_created = 0;
  /// One-way video lag samples (ms), sender stamp → receiver tap.
  std::vector<double> lag_ms;
};

CityScaleResult run_city_scale_benchmark(const CityScaleConfig& config);

}  // namespace vc::core
