// FaultPlan unit tests: timeline compilation onto the event loop, arm-time
// validation, the shaper outage switch, burst-loss installation, relay
// crash/restart, and the JSON exchange format.
#include <gtest/gtest.h>

#include <climits>
#include <memory>
#include <stdexcept>
#include <string>

#include "fault/fault_plan.h"
#include "net/loss.h"
#include "net/network.h"
#include "net/shaper.h"
#include "platform/relay.h"

namespace vc::fault {
namespace {

TEST(FaultPlan, EmptyPlanArmsToNothing) {
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(1)), 1};
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.arm({.network = &net}, SimTime::zero());
  net.loop().run();
  EXPECT_EQ(net.loop().now(), SimTime::zero());  // nothing was ever scheduled
}

TEST(FaultPlan, UnknownHostThrowsAtArmTime) {
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(1)), 1};
  FaultPlan plan;
  plan.link_rate(millis(10), "nonexistent", DataRate::kbps(500));
  EXPECT_THROW(plan.arm({.network = &net}, SimTime::zero()), std::invalid_argument);
}

TEST(FaultPlan, BadBurstLossTargetsThrowAtArmTime) {
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(1)), 1};
  net.add_host("a", GeoPoint{0, 0});
  FaultPlan plan;
  plan.burst_loss(millis(10), /*average=*/0.7, /*mean_burst=*/2.0, "a");
  EXPECT_THROW(plan.arm({.network = &net}, SimTime::zero()), std::invalid_argument);
}

TEST(FaultPlan, RelayCrashWithoutPlatformThrowsAtArmTime) {
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(1)), 1};
  FaultPlan plan;
  plan.relay_crash(millis(10), 0, millis(100));
  EXPECT_THROW(plan.arm({.network = &net}, SimTime::zero()), std::invalid_argument);
}

TEST(FaultPlan, LinkRateStepAppliesAtItsTime) {
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(1)), 1};
  net::Host& b = net.add_host("b", GeoPoint{1, 1});
  FaultPlan plan;
  plan.link_rate(millis(10), "b", DataRate::kbps(300));
  plan.arm({.network = &net}, SimTime::zero());
  // An unshaped target gets an unlimited shaper installed at arm time...
  ASSERT_NE(b.ingress_shaper(), nullptr);
  EXPECT_TRUE(b.ingress_shaper()->rate().is_unlimited());
  net.loop().run();
  // ...and the scheduled action re-points it at the plan's rate.
  EXPECT_EQ(b.ingress_shaper()->rate().bits_per_second(), DataRate::kbps(300).bits_per_second());
}

TEST(FaultPlan, LinkRampEndsAtTargetRate) {
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(1)), 1};
  net::Host& b = net.add_host("b", GeoPoint{1, 1});
  FaultPlan plan;
  plan.link_ramp(millis(10), "b", DataRate::mbps(2.0), DataRate::kbps(500), millis(80),
                 /*steps=*/4);
  plan.arm({.network = &net}, SimTime::zero());
  net.loop().run();
  EXPECT_EQ(b.ingress_shaper()->rate().bits_per_second(), DataRate::kbps(500).bits_per_second());
  EXPECT_GE(net.loop().now(), SimTime::zero() + millis(90));  // all 5 steps fired
}

TEST(FaultPlan, LinkOutageDropsThenRecovers) {
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(1)), 1};
  net::Host& a = net.add_host("a", GeoPoint{0, 0});
  net::Host& b = net.add_host("b", GeoPoint{1, 1});
  auto& tx = a.udp_bind(100);
  int received = 0;
  b.udp_bind(200).on_receive([&](const net::Packet&) { ++received; });

  FaultPlan plan;
  plan.link_outage(millis(10), "b", millis(50));
  plan.arm({.network = &net}, SimTime::zero());

  // Before, during, and after the outage window.
  for (const std::int64_t ms : {5, 30, 100}) {
    net.loop().schedule_at(SimTime::zero() + millis(ms),
                           [&] { tx.send_to(net::Endpoint{b.ip(), 200}, 100); });
  }
  net.loop().run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(b.ingress_shaper()->stats().dropped_packets, 1);
  EXPECT_FALSE(b.ingress_shaper()->is_down());
}

TEST(FaultPlan, BurstLossInstalledOnHostIngress) {
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(1)), 7};
  net::Host& a = net.add_host("a", GeoPoint{0, 0});
  net::Host& b = net.add_host("b", GeoPoint{1, 1});
  auto& tx = a.udp_bind(100);
  int received = 0;
  b.udp_bind(200).on_receive([&](const net::Packet&) { ++received; });

  FaultPlan plan;
  plan.burst_loss(millis(5), /*average=*/0.4, /*mean_burst=*/5.0, "b");
  plan.arm({.network = &net}, SimTime::zero());

  const int sent = 400;
  for (int i = 0; i < sent; ++i) {
    net.loop().schedule_at(SimTime::zero() + millis(10 + i),
                           [&] { tx.send_to(net::Endpoint{b.ip(), 200}, 100); });
  }
  net.loop().run();
  EXPECT_GT(b.ingress_losses(), 0);
  EXPECT_EQ(received + static_cast<int>(b.ingress_losses()), sent);
  EXPECT_NEAR(static_cast<double>(b.ingress_losses()) / sent, 0.4, 0.15);
}

TEST(FaultPlan, RelayCrashDropsTrafficAndRestartLosesState) {
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(1)), 1};
  platform::RelayServer relay{net, "relay", GeoPoint{38.9, -77.4}, 8801,
                              platform::RelayServer::ForwardingDelay{millis(1), 0.0}};
  net::Host& sender = net.add_host("s", GeoPoint{40, -75});
  net::Host& receiver = net.add_host("r", GeoPoint{41, -74});
  auto& tx = sender.udp_bind(100);
  int received = 0;
  receiver.udp_bind(100).on_receive([&](const net::Packet&) { ++received; });
  relay.add_participant(1, 1, {sender.ip(), 100});
  relay.add_participant(1, 2, {receiver.ip(), 100});

  auto send_media = [&] {
    net::Packet p;
    p.dst = relay.endpoint();
    p.l7_len = 500;
    p.kind = net::StreamKind::kVideo;
    p.origin_id = 1;
    tx.send(std::move(p));
  };
  send_media();
  net.loop().run();
  EXPECT_EQ(received, 1);

  relay.crash();
  EXPECT_TRUE(relay.crashed());
  send_media();
  net.loop().run();
  EXPECT_EQ(received, 1);  // dropped at the dead process
  EXPECT_EQ(relay.stats().crash_dropped, 1);

  // Restart brings the process back empty: traffic flows again only after
  // the control plane re-adds the participants.
  relay.restart();
  EXPECT_FALSE(relay.crashed());
  send_media();
  net.loop().run();
  EXPECT_EQ(received, 1);
  relay.add_participant(1, 1, {sender.ip(), 100});
  relay.add_participant(1, 2, {receiver.ip(), 100});
  send_media();
  net.loop().run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(relay.stats().crashes, 1);
  EXPECT_EQ(relay.stats().restarts, 1);
}

TEST(FaultPlan, JsonRoundTripPreservesEveryKind) {
  FaultPlan plan;
  plan.link_rate(millis(100), "US-East-9", DataRate::kbps(750));
  plan.link_ramp(millis(200), "US-West", DataRate::mbps(3.0), DataRate::kbps(250), seconds(2), 5);
  plan.link_outage(millis(400), "US-Central", millis(1500));
  plan.burst_loss(millis(600), 0.05, 12.0, "US-West");
  plan.burst_loss(millis(700), 0.02, 4.0);  // core-network variant, no host
  plan.relay_crash(seconds(1), 2, seconds(3), millis(400));

  const std::string json = plan.to_json();
  const FaultPlan back = FaultPlan::from_json(json);
  ASSERT_EQ(back.size(), plan.size());
  EXPECT_EQ(back.to_json(), json);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(back.events()[i].kind, plan.events()[i].kind) << "event " << i;
    EXPECT_EQ(back.events()[i].at.micros(), plan.events()[i].at.micros()) << "event " << i;
  }
  EXPECT_EQ(back.events()[5].detection.micros(), millis(400).micros());
}

TEST(FaultPlan, JsonRoundTripEscapesHostNames) {
  FaultPlan plan;
  plan.link_outage(millis(100), "a\"b", millis(500));
  plan.link_rate(millis(200), "c\\d\te", DataRate::kbps(750));
  const std::string json = plan.to_json();
  const FaultPlan back = FaultPlan::from_json(json);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.events()[0].host, "a\"b");
  EXPECT_EQ(back.events()[1].host, "c\\d\te");
  EXPECT_EQ(back.to_json(), json);
}

TEST(FaultPlan, FromJsonRejectsMalformedInput) {
  EXPECT_THROW(FaultPlan::from_json("not json"), std::runtime_error);
  EXPECT_THROW(FaultPlan::from_json("{\"fault_plan\": 3}"), std::runtime_error);
  EXPECT_THROW(FaultPlan::from_json(R"({"fault_plan": [{"kind": "meteor", "at_ms": 1}]})"),
               std::runtime_error);
}

// Each number the loader casts to an integer is range-checked first: out of
// range it would be undefined behaviour, and a plan that "loaded" would
// carry a garbage value.
TEST(FaultPlan, FromJsonRejectsNegativeRelay) {
  EXPECT_THROW(FaultPlan::from_json(R"([{"kind": "relay_crash", "at_ms": 1, "relay": -1,
                                         "duration_ms": 5}])"),
               std::runtime_error);
}

TEST(FaultPlan, FromJsonRejectsFractionalRelay) {
  EXPECT_THROW(FaultPlan::from_json(R"([{"kind": "relay_crash", "at_ms": 1, "relay": 1.5,
                                         "duration_ms": 5}])"),
               std::runtime_error);
}

TEST(FaultPlan, FromJsonRejectsStepsOutsideInt) {
  EXPECT_THROW(FaultPlan::from_json(R"([{"kind": "link_ramp", "at_ms": 1, "rate_kbps": 100,
                                         "rate_end_kbps": 50, "duration_ms": 5,
                                         "steps": 1e20}])"),
               std::runtime_error);
}

// Arming schedules steps + 1 events, so a ramp's steps are bounded where the
// plan is built; the bound is checked without arming anything.
TEST(FaultPlan, RampStepsAboveTheBoundAreRejected) {
  const auto ramp_json = [](long long steps) {
    return R"([{"kind": "link_ramp", "at_ms": 1, "rate_kbps": 100, "rate_end_kbps": 50,
                "duration_ms": 5, "steps": )" +
           std::to_string(steps) + "}]";
  };
  for (const long long steps : {static_cast<long long>(kMaxRampSteps) + 1,
                                static_cast<long long>(INT_MAX)}) {
    SCOPED_TRACE(steps);
    EXPECT_THROW(FaultPlan::from_json(ramp_json(steps)), std::runtime_error);
    EXPECT_THROW(FaultPlan{}.link_ramp(millis(1), "a", DataRate::kbps(100), DataRate::kbps(50),
                                       millis(5), static_cast<int>(steps)),
                 std::invalid_argument);
  }
  for (const int steps : {4, 5, 8, kMaxRampSteps}) {
    EXPECT_EQ(FaultPlan::from_json(ramp_json(steps)).events()[0].steps, steps);
  }
}

// A ramp needs at least one step. Below that, the builder and the reader
// both refuse the plan rather than ramp in one step.
TEST(FaultPlan, RampStepsBelowOneAreRejected) {
  const auto ramp_json = [](long long steps) {
    return R"([{"kind": "link_ramp", "at_ms": 1, "rate_kbps": 100, "rate_end_kbps": 50,
                "duration_ms": 5, "steps": )" +
           std::to_string(steps) + "}]";
  };
  for (const long long steps : {0LL, -1LL, -5LL, static_cast<long long>(INT_MIN)}) {
    SCOPED_TRACE(steps);
    EXPECT_THROW(FaultPlan::from_json(ramp_json(steps)), std::runtime_error);
    EXPECT_THROW(FaultPlan{}.link_ramp(millis(1), "a", DataRate::kbps(100), DataRate::kbps(50),
                                       millis(5), static_cast<int>(steps)),
                 std::invalid_argument);
  }
  EXPECT_EQ(FaultPlan::from_json(ramp_json(1)).events()[0].steps, 1);
  EXPECT_EQ(FaultPlan{}
                .link_ramp(millis(1), "a", DataRate::kbps(100), DataRate::kbps(50), millis(5), 1)
                .events()[0]
                .steps,
            1);
}

TEST(FaultPlan, FromJsonRejectsTimeBeyondTwoToThe53Micros) {
  EXPECT_THROW(FaultPlan::from_json(R"([{"kind": "link_outage", "at_ms": 1e300,
                                         "duration_ms": 5}])"),
               std::runtime_error);
  // 2^53 µs = 9007199254740.992 ms bounds what loads.
  EXPECT_THROW(FaultPlan::from_json(R"([{"kind": "link_outage", "at_ms": 9007199254741,
                                         "duration_ms": 5}])"),
               std::runtime_error);
  const FaultPlan edge = FaultPlan::from_json(
      R"([{"kind": "link_outage", "at_ms": 9007199254740, "duration_ms": 5}])");
  EXPECT_EQ(edge.events()[0].at.micros(), 9007199254740000);
}

TEST(FaultPlan, FromJsonRejectsRateBeyondTwoToThe53Bps) {
  EXPECT_THROW(FaultPlan::from_json(R"([{"kind": "link_rate", "at_ms": 1, "rate_kbps": 1e300}])"),
               std::runtime_error);
}

}  // namespace
}  // namespace vc::fault
