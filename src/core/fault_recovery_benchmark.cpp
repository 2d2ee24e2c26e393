#include "core/fault_recovery_benchmark.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "capture/lag_detector.h"
#include "core/session_world.h"

namespace vc::core {

FaultRecoveryResult run_fault_recovery_benchmark(const FaultRecoveryConfig& config) {
  if (config.participant_sites.empty()) throw std::invalid_argument{"no participants"};
  // Reconnect instruments (client.disconnects / client.reconnects /
  // client.time_to_reconnect_ms) are harvested from a registry; when the
  // caller brings none, a local one keeps the result self-contained. Callers
  // sharing a registry across runs should hand each run a fresh one, since
  // counters are read as absolute values.
  MetricsRegistry local_metrics;
  MetricsRegistry& reg = config.metrics != nullptr ? *config.metrics : local_metrics;
  SessionWorld world{config.seed, {&reg, config.tracer, config.timeline}};
  world.add_platform(config.platform,
                     {.seed = config.seed ^ 0xABC, .fan_out_shards = config.fan_out_shards});

  net::Host& host_vm = world.vm(config.host_site, 8);
  const std::vector<net::Host*> part_vms = world.vms(config.participant_sites);

  const auto feed = std::make_shared<media::FlashFeed>(
      media::FeedParams{config.feed_width, config.feed_height, config.fps, config.seed ^ 0xF1A5});

  client::VcaClient& host_client = world.client(
      host_vm, video_config(config.feed_width, config.feed_height, config.fps, config.seed));
  client::MediaFeeder& feeder = world.feeder(host_client);
  capture::PacketCapture host_capture{host_vm, world.clock_offset(host_vm)};

  testbed::SessionOrchestrator::Plan plan;
  plan.host = &host_client;
  std::vector<std::unique_ptr<capture::PacketCapture>> captures;
  for (std::size_t i = 0; i < part_vms.size(); ++i) {
    plan.participants.push_back(&world.client(*part_vms[i], listener_config(config.seed + 31 * i)));
    captures.push_back(
        std::make_unique<capture::PacketCapture>(*part_vms[i], world.clock_offset(*part_vms[i])));
  }

  fault::FaultPlan timeline;
  if (config.use_custom_plan) {
    timeline = config.custom_plan;
  } else {
    timeline.relay_crash(config.outage_start, 0, config.outage_duration);
    if (config.platform == platform::PlatformId::kMeet) {
      // Meet's host gets a primary/secondary front-end pair, created first
      // (indices 0 and 1) in unspecified order; crashing both takes the
      // host's front-end site down whichever one this session picked.
      timeline.relay_crash(config.outage_start, 1, config.outage_duration);
    }
  }

  // Phase boundaries in absolute sim time, fixed when media starts (the arm
  // origin). Captured here so the harvest below can bucket receiver flash
  // events; capture timestamps carry the VM clock offsets (~1 ms), noise on
  // the seconds-long phases.
  SimTime outage_begin_abs{};
  SimTime recovery_end_abs{};

  plan.media_duration = config.session_duration;
  plan.reconnect = config.reconnect;
  plan.reconnect_seed = config.seed ^ 0xFA117;
  plan.on_all_joined = [&] {
    feeder.play_video(feed, config.session_duration);
    const SimTime origin = world.loop().now();
    outage_begin_abs = origin + config.outage_start;
    recovery_end_abs = outage_begin_abs + config.outage_duration + config.recovery_grace;
    if (config.inject) timeline.arm(world.bindings(), origin);
  };
  world.orchestrate(std::move(plan));
  // The timeline bound (join + media + reconnect-tail headroom) is what lets
  // the self-rescheduling tick chain end and the run drain.
  world.run(config.session_duration + config.outage_duration + config.recovery_grace +
            seconds(30));

  FaultRecoveryResult result;
  result.platform = config.platform;
  result.clients = 1 + static_cast<int>(part_vms.size());
  result.outage_begin_abs = outage_begin_abs;
  result.recovery_end_abs = recovery_end_abs;

  capture::LagDetectorConfig lag_cfg;
  lag_cfg.flash_period = seconds_f(feed->period_sec());
  const auto sender_events =
      capture::detect_flash_events(host_capture.trace(), net::Direction::kOutgoing, lag_cfg);
  for (std::size_t i = 0; i < captures.size(); ++i) {
    const auto rx_events =
        capture::detect_flash_events(captures[i]->trace(), net::Direction::kIncoming, lag_cfg);
    // Bucket receiver events by phase, then match each bucket against the
    // full sender timeline (matching is per-receiver-event, so splitting the
    // receiver side is exact).
    std::vector<capture::FlashEvent> before, during, after;
    for (const auto& ev : rx_events) {
      if (ev.at < outage_begin_abs) {
        before.push_back(ev);
      } else if (ev.at < recovery_end_abs) {
        during.push_back(ev);
      } else {
        after.push_back(ev);
      }
    }
    for (double lag : capture::match_lags_ms(sender_events, before, lag_cfg)) {
      result.lags_before_ms.push_back(lag);
    }
    for (double lag : capture::match_lags_ms(sender_events, during, lag_cfg)) {
      result.lags_during_ms.push_back(lag);
    }
    for (double lag : capture::match_lags_ms(sender_events, after, lag_cfg)) {
      result.lags_after_ms.push_back(lag);
    }
  }
  for (double lag : result.lags_during_ms) {
    result.lag_spike_hwm_ms = std::max(result.lag_spike_hwm_ms, lag);
  }
  for (double lag : result.lags_after_ms) {
    result.lag_spike_hwm_ms = std::max(result.lag_spike_hwm_ms, lag);
  }
  reg.gauge("fault.lag_spike_hwm_ms").set(result.lag_spike_hwm_ms);

  result.packets_lost_in_outage = world.crash_dropped();

  result.disconnects = reg.counter("client.disconnects").value();
  result.reconnects = reg.counter("client.reconnects").value();
  result.reconnect_attempts = reg.counter("client.reconnect_attempts").value();
  result.reconnect_giveups = reg.counter("client.reconnect_giveups").value();
  const RunningStats& ttr = reg.histogram("client.time_to_reconnect_ms").stats();
  if (ttr.count() > 0) {
    result.mean_time_to_reconnect_ms = ttr.mean();
    result.max_time_to_reconnect_ms = ttr.max();
  }
  return result;
}

}  // namespace vc::core
