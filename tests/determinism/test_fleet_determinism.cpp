// Acceptance test for the relay-federation fleet's determinism contract:
// the city-scale workload — balancer placement, overflow sharding, trunked
// inter-relay media, and the crash-failover sweep — must emit byte-identical
// runner aggregate reports at every runner thread count × relay fan-out
// shard count K × fleet size. The balancer draws no RNG and trunks live
// entirely on the event loop, so the whole federation path sits inside the
// same contract as a single-relay run; a replica run of the identical config
// must also match byte for byte (placement is a pure function of seed +
// config, never of scheduling).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/city_benchmark.h"
#include "runner/experiment_runner.h"

namespace vc {
namespace {

constexpr std::size_t kTasks = 2;

core::CityScaleConfig small_city(std::uint64_t seed, int fleet_size, int fan_out_shards,
                                 bool crash) {
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
  cfg.fan_out_shards = fan_out_shards;
  return cfg;
}

std::string run_city(std::size_t threads, int fan_out_shards, int fleet_size, bool crash) {
  runner::ExperimentRunner::Config rc;
  rc.threads = threads;
  rc.base_seed = 31;
  rc.label = "fleet-determinism";
  rc.rate_counters = {"city.sim_events", "city.sim_bytes"};
  const auto report = runner::ExperimentRunner{rc}.run(
      kTasks, [fan_out_shards, fleet_size, crash](runner::SessionContext& ctx) {
        core::CityScaleConfig cfg = small_city(ctx.seed, fleet_size, fan_out_shards, crash);
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
      });
  EXPECT_TRUE(report.failures.empty());
  return report.aggregate_json();
}

TEST(FleetDeterminism, CityRegistryRecordsNetworkAndCodec) {
  MetricsRegistry metrics;
  core::CityScaleConfig cfg = small_city(3, 2, 0, false);
  cfg.metrics = &metrics;
  core::run_city_scale_benchmark(cfg);
  EXPECT_GT(metrics.counter("net.loop.events_executed").value(), 0);
  EXPECT_GT(metrics.counter("net.link.packets_sent").value(), 0);
  EXPECT_GT(metrics.counter("codec.video.frames_encoded").value(), 0);
}

TEST(FleetDeterminism, IdenticalAcrossThreadsShardsAndFleetSizes) {
  for (const int fleet_size : {1, 2, 4}) {
    SCOPED_TRACE("fleet_size=" + std::to_string(fleet_size));
    const std::string base = run_city(1, 0, fleet_size, false);
    EXPECT_NE(base.find("fleet.relay0.participants"), std::string::npos)
        << "fleet gauges missing from the aggregate";
    const struct {
      std::size_t threads;
      int shards;
    } combos[] = {{8, 0}, {1, 8}, {8, 8}};
    for (const auto& combo : combos) {
      EXPECT_EQ(run_city(combo.threads, combo.shards, fleet_size, false), base)
          << "report drifted at threads=" << combo.threads << " K=" << combo.shards;
    }
  }
}

TEST(FleetDeterminism, CrashFailoverSceneIdenticalAcrossThreadsAndShards) {
  const std::string base = run_city(1, 0, /*fleet_size=*/2, /*crash=*/true);
  // The outage bit and the fleet's failover machinery ran.
  EXPECT_NE(base.find("client.reconnects"), std::string::npos);
  const struct {
    std::size_t threads;
    int shards;
  } combos[] = {{8, 0}, {1, 8}, {8, 8}};
  for (const auto& combo : combos) {
    EXPECT_EQ(run_city(combo.threads, combo.shards, 2, true), base)
        << "crash-failover report drifted at threads=" << combo.threads
        << " K=" << combo.shards;
  }
}

TEST(FleetDeterminism, PlacementReplicaRunsAreByteIdentical) {
  // Same seed + config, fresh process state: the balancer's decisions must
  // be a pure function of its inputs, including across the failover sweep.
  EXPECT_EQ(run_city(8, 0, 4, false), run_city(8, 0, 4, false));
  EXPECT_EQ(run_city(8, 0, 2, true), run_city(8, 0, 2, true));
}

}  // namespace
}  // namespace vc
