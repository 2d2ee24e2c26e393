// End-to-end fault recovery: a relay crash mid-session must disconnect the
// clients routed through it, drive client::ClientController's seeded backoff
// loop, and re-establish media (routes + subscriptions) after the restart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_recovery_benchmark.h"

namespace vc::core {
namespace {

FaultRecoveryConfig quick_config(platform::PlatformId id) {
  FaultRecoveryConfig cfg;
  cfg.platform = id;
  cfg.session_duration = seconds(24);
  cfg.outage_start = seconds(6);
  cfg.outage_duration = seconds(2);
  cfg.recovery_grace = seconds(4);
  cfg.seed = 11;
  return cfg;
}

TEST(FaultRecovery, ZoomRelayCrashDisconnectsAndReconnectsEveryClient) {
  const FaultRecoveryResult r = run_fault_recovery_benchmark(quick_config(platform::PlatformId::kZoom));
  EXPECT_EQ(r.clients, 3);
  // All three clients ride the single session relay: all disconnect, all
  // make it back, nobody gives up.
  EXPECT_EQ(r.disconnects, 3);
  EXPECT_EQ(r.reconnects, 3);
  EXPECT_EQ(r.reconnect_giveups, 0);
  EXPECT_GE(r.reconnect_attempts, r.reconnects);
  // Recovery cannot beat the outage (reconnects fail while the relay is
  // down) and must happen within the session.
  EXPECT_GE(r.max_time_to_reconnect_ms, 2000.0);
  EXPECT_GT(r.mean_time_to_reconnect_ms, 0.0);
  // The detection window funnels in-flight media into the dead relay.
  EXPECT_GT(r.packets_lost_in_outage, 0);
  // Flashes flow in all three phases, and the fault leaves a lag HWM.
  EXPECT_FALSE(r.lags_before_ms.empty());
  EXPECT_FALSE(r.lags_after_ms.empty());
  EXPECT_GT(r.lag_spike_hwm_ms, 0.0);
}

TEST(FaultRecovery, MeetFrontEndCrashReconnectsTheHost) {
  const FaultRecoveryResult r = run_fault_recovery_benchmark(quick_config(platform::PlatformId::kMeet));
  // Meet routes each client through its own front-end; the default plan
  // crashes the host's primary/secondary pair, so exactly the host cycles.
  EXPECT_EQ(r.disconnects, 1);
  EXPECT_EQ(r.reconnects, 1);
  EXPECT_FALSE(r.lags_after_ms.empty());
}

TEST(FaultRecovery, ControlRunSeesNoFault) {
  FaultRecoveryConfig cfg = quick_config(platform::PlatformId::kWebex);
  cfg.inject = false;
  const FaultRecoveryResult r = run_fault_recovery_benchmark(cfg);
  EXPECT_EQ(r.disconnects, 0);
  EXPECT_EQ(r.reconnects, 0);
  EXPECT_EQ(r.packets_lost_in_outage, 0);
  EXPECT_FALSE(r.lags_before_ms.empty());
}

std::vector<std::string> counter_names(const MetricsRegistry& metrics) {
  std::vector<std::string> names;
  for (const auto& [name, counter] : metrics.counters()) names.push_back(name);
  return names;
}

TEST(FaultRecovery, ArmedEmptyPlanIsIndistinguishableFromNoPlan) {
  FaultRecoveryConfig cfg = quick_config(platform::PlatformId::kZoom);
  MetricsRegistry no_plan_metrics;
  cfg.inject = false;
  cfg.metrics = &no_plan_metrics;
  const FaultRecoveryResult no_plan = run_fault_recovery_benchmark(cfg);
  MetricsRegistry empty_plan_metrics;
  cfg.inject = true;
  cfg.custom_plan.emplace();  // empty custom plan: armed, schedules nothing
  cfg.metrics = &empty_plan_metrics;
  const FaultRecoveryResult empty_plan = run_fault_recovery_benchmark(cfg);
  // The deterministic half of the empty-plan cost contract: the armed plan
  // schedules no event and registers no instrument.
  EXPECT_GT(no_plan_metrics.counter("net.loop.events_executed").value(), 0);
  EXPECT_EQ(empty_plan_metrics.counter("net.loop.events_executed").value(),
            no_plan_metrics.counter("net.loop.events_executed").value());
  EXPECT_EQ(counter_names(empty_plan_metrics), counter_names(no_plan_metrics));
  EXPECT_EQ(empty_plan.disconnects, no_plan.disconnects);
  EXPECT_EQ(empty_plan.lags_before_ms, no_plan.lags_before_ms);
  EXPECT_EQ(empty_plan.lags_during_ms, no_plan.lags_during_ms);
  EXPECT_EQ(empty_plan.lags_after_ms, no_plan.lags_after_ms);
  EXPECT_EQ(empty_plan.packets_lost_in_outage, no_plan.packets_lost_in_outage);
}

TEST(FaultRecovery, SameSeedIsReproducible) {
  const FaultRecoveryConfig cfg = quick_config(platform::PlatformId::kZoom);
  const FaultRecoveryResult a = run_fault_recovery_benchmark(cfg);
  const FaultRecoveryResult b = run_fault_recovery_benchmark(cfg);
  EXPECT_EQ(a.lags_before_ms, b.lags_before_ms);
  EXPECT_EQ(a.lags_during_ms, b.lags_during_ms);
  EXPECT_EQ(a.lags_after_ms, b.lags_after_ms);
  EXPECT_EQ(a.mean_time_to_reconnect_ms, b.mean_time_to_reconnect_ms);
  EXPECT_EQ(a.packets_lost_in_outage, b.packets_lost_in_outage);
}

TEST(FaultRecovery, CustomPlanOverridesTheDefaultTimeline) {
  FaultRecoveryConfig cfg = quick_config(platform::PlatformId::kZoom);
  // Outage on one participant's ingress link instead of a relay crash: no
  // client is ever told its relay died, so no reconnect cycle runs — the
  // fault only starves that receiver's during-phase flashes.
  cfg.custom_plan.emplace().link_outage(cfg.outage_start, "US-West", cfg.outage_duration);
  const FaultRecoveryResult r = run_fault_recovery_benchmark(cfg);
  EXPECT_EQ(r.disconnects, 0);
  EXPECT_EQ(r.reconnects, 0);
  EXPECT_FALSE(r.lags_before_ms.empty());
}

TEST(FaultRecovery, RelayThatNeverReturnsExhaustsTheBackoffAndGivesUp) {
  // Every other scenario's outage is 1–3 s, so clients reconnect within three
  // attempts. Here the relay stays down past the session: each client walks
  // the whole backoff ladder (0.5 s doubling to the 8 s cap, ±20 % jitter)
  // and gives up after its 20th attempt. The give-up instants pin the cap,
  // the attempt budget and the jitter draws for seed 11.
  FaultRecoveryConfig cfg = quick_config(platform::PlatformId::kZoom);
  cfg.session_duration = seconds(180);
  cfg.custom_plan.emplace().relay_crash(cfg.outage_start, 0, seconds(600));
  Tracer tracer{1u << 18};
  cfg.tracer = &tracer;
  const FaultRecoveryResult r = run_fault_recovery_benchmark(cfg);
  EXPECT_EQ(r.clients, 3);
  EXPECT_EQ(r.disconnects, 3);
  EXPECT_EQ(r.reconnects, 0);
  EXPECT_EQ(r.reconnect_attempts, 3 * 20);
  EXPECT_EQ(r.reconnect_giveups, 3);

  std::vector<std::int64_t> giveup_us;
  tracer.for_each([&](const Tracer::Record& rec) {
    if (std::string_view{rec.name} != "client.reconnect_giveup") return;
    EXPECT_EQ(rec.value, 20.0f);  // attempts made by the client giving up
    giveup_us.push_back(rec.ts_us);
  });
  std::sort(giveup_us.begin(), giveup_us.end());
  EXPECT_EQ(giveup_us, (std::vector<std::int64_t>{148820092, 150770247, 156770471}));
}

}  // namespace
}  // namespace vc::core
