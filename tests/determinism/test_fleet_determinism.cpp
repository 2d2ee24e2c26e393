// Acceptance test for the relay-federation fleet's determinism contract:
// the city-scale workload — balancer placement, overflow sharding, trunked
// inter-relay media, and the crash-failover sweep — must emit byte-identical
// runner aggregate reports at every runner thread count × fleet size. The
// balancer draws no RNG and trunks live
// entirely on the event loop, so the whole federation path sits inside the
// same contract as a single-relay run; a replica run of the identical config
// must also match byte for byte (placement is a pure function of seed +
// config, never of scheduling).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/city_benchmark.h"
#include "runner/experiment_runner.h"

namespace vc {
namespace {

constexpr std::size_t kTasks = 2;

core::CityScaleConfig small_city(std::uint64_t seed, int fleet_size, bool crash) {
  core::CityScaleConfig cfg;
  cfg.platform = platform::PlatformId::kZoom;
  cfg.fleet_size = fleet_size;
  cfg.policy = fleet::PlacementPolicy::kLeastLoaded;
  cfg.overflow_shard_size = 2;  // 4 members per meeting force trunked shards
  cfg.meetings = 3;
  cfg.participants_per_meeting = 3;
  cfg.meeting_stagger = millis(300);
  cfg.media_duration = seconds(6);
  cfg.inject_crash = crash;
  cfg.outage_start = seconds(2);
  cfg.outage_duration = seconds(1);
  cfg.seed = seed;
  return cfg;
}

runner::ExperimentRunner::Config city_config() {
  runner::ExperimentRunner::Config rc;
  rc.base_seed = 31;
  rc.label = "fleet-determinism";
  rc.rate_counters = {"city.sim_events", "city.sim_bytes"};
  return rc;
}

runner::ExperimentRunner::Task city_task(int fleet_size, bool crash) {
  return [fleet_size, crash](runner::SessionContext& ctx) {
    core::CityScaleConfig cfg = small_city(ctx.seed, fleet_size, crash);
    cfg.metrics = &ctx.metrics;
    const auto r = core::run_city_scale_benchmark(cfg);
    EXPECT_EQ(r.meetings_completed + r.join_timeouts, 3);
    if (fleet_size > 1) {
      // The overflow split actually happened and media crossed trunks.
      EXPECT_GT(r.trunk_delivered_packets, 0);
    }
    ctx.sample("completed", static_cast<double>(r.meetings_completed));
    ctx.sample("trunk_delivered", static_cast<double>(r.trunk_delivered_packets));
    ctx.sample("relays", static_cast<double>(r.relays_created));
    for (double lag : r.lag_ms) ctx.sample("lag_ms", lag);
  };
}

/// One 8-thread pass: the replica test compares two of them.
std::string run_city(int fleet_size, bool crash) {
  runner::ExperimentRunner::Config rc = city_config();
  rc.threads = 8;
  const auto report = runner::ExperimentRunner{rc}.run(kTasks, city_task(fleet_size, crash));
  EXPECT_TRUE(report.failures.empty());
  return report.aggregate_json();
}

TEST(FleetDeterminism, CityRegistryRecordsNetworkAndCodec) {
  MetricsRegistry metrics;
  core::CityScaleConfig cfg = small_city(3, 2, false);
  cfg.metrics = &metrics;
  core::run_city_scale_benchmark(cfg);
  EXPECT_GT(metrics.counter("net.loop.events_executed").value(), 0);
  EXPECT_GT(metrics.counter("net.link.packets_sent").value(), 0);
  EXPECT_GT(metrics.counter("codec.video.frames_encoded").value(), 0);
}

TEST(FleetDeterminism, IdenticalAcrossThreadsAndFleetSizes) {
  for (const int fleet_size : {1, 2, 4}) {
    SCOPED_TRACE("fleet_size=" + std::to_string(fleet_size));
    const vcb::CheckedRun run =
        vcb::run_checked(city_config(), kTasks, city_task(fleet_size, false));
    ASSERT_TRUE(run.ok());
    EXPECT_NE(run.serial.aggregate_json().find("fleet.relay0.participants"), std::string::npos)
        << "fleet gauges missing from the aggregate";
  }
}

TEST(FleetDeterminism, CrashFailoverSceneIdenticalAcrossThreads) {
  const vcb::CheckedRun run =
      vcb::run_checked(city_config(), kTasks, city_task(/*fleet_size=*/2, /*crash=*/true));
  ASSERT_TRUE(run.ok());
  // The outage bit and the fleet's failover machinery ran.
  EXPECT_NE(run.serial.aggregate_json().find("client.reconnects"), std::string::npos);
}

// A fleet of 1 must reproduce the platform's native relay steering move for
// move. Single-meeting Webex is the scene where that is a fair demand: one
// relay at webex-us-east, allocated at meeting creation, no P2P
// short-circuit, no allocator RNG draw. Without the fleet's own gauges both
// runs must execute the same events and record the same counters and lags.
TEST(FleetDeterminism, FleetOfOneMatchesNativeSteering) {
  const auto run = [](bool use_fleet, MetricsRegistry& metrics) {
    core::CityScaleConfig cfg;
    cfg.platform = platform::PlatformId::kWebex;
    cfg.meetings = 1;
    cfg.participants_per_meeting = 7;
    cfg.media_duration = seconds(10);
    cfg.use_fleet = use_fleet;
    cfg.fleet_size = 1;
    cfg.attach_fleet_metrics = false;
    cfg.seed = 10101;
    cfg.metrics = &metrics;
    return core::run_city_scale_benchmark(cfg).lag_ms;
  };
  const auto values = [](const MetricsRegistry& metrics) {
    std::map<std::string, std::int64_t> out;
    for (const auto& [name, counter] : metrics.counters()) out[name] = counter.value();
    return out;
  };
  MetricsRegistry native;
  MetricsRegistry fleet;
  const std::vector<double> native_lags = run(false, native);
  EXPECT_EQ(run(true, fleet), native_lags);
  EXPECT_FALSE(native_lags.empty());
  EXPECT_GT(native.counter("net.loop.events_executed").value(), 0);
  EXPECT_EQ(fleet.counter("net.loop.events_executed").value(),
            native.counter("net.loop.events_executed").value());
  EXPECT_EQ(values(fleet), values(native));
}

TEST(FleetDeterminism, PlacementReplicaRunsAreByteIdentical) {
  // Same seed + config, fresh process state: the balancer's decisions must
  // be a pure function of its inputs, including across the failover sweep.
  EXPECT_EQ(run_city(4, false), run_city(4, false));
  EXPECT_EQ(run_city(2, true), run_city(2, true));
}

}  // namespace
}  // namespace vc
