#include "core/city_benchmark.h"

#include <memory>
#include <stdexcept>

#include "core/session_world.h"

namespace vc::core {

CityScaleResult run_city_scale_benchmark(const CityScaleConfig& config) {
  if (config.meetings < 1) throw std::invalid_argument{"meetings must be >= 1"};
  if (config.participants_per_meeting < 1) {
    throw std::invalid_argument{"participants_per_meeting must be >= 1"};
  }
  MetricsRegistry local_metrics;
  MetricsRegistry& reg = config.metrics != nullptr ? *config.metrics : local_metrics;
  SessionWorld world{config.seed, {&reg, config.tracer}};
  platform::BasePlatform& platform = world.add_platform(
      config.platform, {.seed = config.seed ^ 0xC17, .fan_out_shards = config.fan_out_shards});

  std::unique_ptr<fleet::RelayFleet> fleet;
  if (config.use_fleet) {
    fleet::RelayFleet::Config fc;
    fc.size = config.fleet_size;
    fc.policy = config.policy;
    fc.overflow_shard_size = config.overflow_shard_size;
    fc.metrics = config.attach_fleet_metrics;
    fleet = std::make_unique<fleet::RelayFleet>(world.network(), platform, fc);
  }

  // One VM per client, cycled across the US measurement sites (Table 3's
  // within-US deployments) so the locality policy has a real geography.
  const std::vector<testbed::VmSite> sites = testbed::us_sites();
  auto make_vm = [&](std::size_t k) -> net::Host& {
    return *world.vms({sites[k % sites.size()].name}).front();
  };

  CityScaleResult result;
  fault::FaultPlan crash_plan;
  if (config.inject_crash) {
    crash_plan.relay_crash(config.outage_start, 0, config.outage_duration);
  }

  for (int mi = 0; mi < config.meetings; ++mi) {
    const std::size_t base = static_cast<std::size_t>(mi) *
                             static_cast<std::size_t>(1 + config.participants_per_meeting);
    net::Host& host_vm = make_vm(base);

    const std::uint64_t meeting_seed = config.seed + 101 * static_cast<std::uint64_t>(mi);
    testbed::SessionOrchestrator::Plan plan;
    plan.host = &world.client(
        host_vm, video_config(config.feed_width, config.feed_height, config.fps, meeting_seed));
    client::MediaFeeder& feeder = world.feeder(*plan.host);
    auto feed = std::make_shared<media::FlashFeed>(
        media::FeedParams{config.feed_width, config.feed_height, config.fps,
                          config.seed ^ (0xF00D + static_cast<std::uint64_t>(mi))});

    for (int ri = 0; ri < config.participants_per_meeting; ++ri) {
      net::Host& vm = make_vm(base + 1 + static_cast<std::size_t>(ri));
      plan.participants.push_back(
          &world.client(vm, listener_config(meeting_seed + static_cast<std::uint64_t>(ri) + 1)));
      // One-way lag tap: sender stamp → receiver interface, subsampled per
      // receiver with a deterministic stride.
      const int stride = config.lag_sample_stride > 0 ? config.lag_sample_stride : 1;
      vm.add_tap([&lags = result.lag_ms, stride, n = 0](net::Direction dir,
                                                        const net::Packet& pkt,
                                                        SimTime at) mutable {
        if (dir != net::Direction::kIncoming || pkt.kind != net::StreamKind::kVideo) return;
        if (n++ % stride != 0) return;
        lags.push_back((at - pkt.sent_at).millis());
      });
    }

    plan.media_duration = config.media_duration;
    if (config.inject_crash) {
      plan.reconnect = config.reconnect;
      plan.reconnect_seed = config.seed ^ (0xFA11 + static_cast<std::uint64_t>(mi));
    }
    plan.on_all_joined = [&feeder, feed, mi, &config, &crash_plan, &world]() {
      feeder.play_video(feed, config.media_duration);
      if (mi == 0 && config.inject_crash) crash_plan.arm(world.bindings(), world.loop().now());
    };
    plan.on_done = [&result](const testbed::SessionOutcome& outcome) {
      if (outcome.ok) {
        ++result.meetings_completed;
      } else {
        ++result.join_timeouts;
      }
    };
    world.orchestrate(std::move(plan), config.meeting_stagger * mi);
  }

  world.run();

  result.clients = config.meetings * (1 + config.participants_per_meeting);
  result.sim_events = static_cast<std::int64_t>(world.loop().events_executed());
  result.sim_bytes = world.network().stats().bytes_sent;
  reg.counter("city.sim_events").add(result.sim_events);
  reg.counter("city.sim_bytes").add(result.sim_bytes);
  if (fleet != nullptr) {
    for (int i = 0; i < fleet->size(); ++i) {
      for (int j = 0; j < fleet->size(); ++j) {
        const fleet::Trunk* t = fleet->trunk(i, j);
        if (t == nullptr) continue;
        result.trunk_delivered_packets += t->stats().delivered_packets;
        result.trunk_dropped_packets += t->shaper_stats().dropped_packets;
      }
    }
  }
  result.relays_created = static_cast<std::int64_t>(platform.allocator().relays_created());
  result.packets_lost_in_outage = world.crash_dropped();
  result.reconnects = reg.counter("client.reconnects").value();
  return result;
}

}  // namespace vc::core
