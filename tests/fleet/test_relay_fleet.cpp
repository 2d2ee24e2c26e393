// RelayFleet balancer behavior driven through the MeetingPlacer interface:
// placement policies, overflow sharding, load release, crash failover, and
// the fleet-of-1 wait-for-restart fallback.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "fleet/relay_fleet.h"
#include "net/network.h"
#include "platform/base_platform.h"
#include "platform/infrastructure.h"

namespace vc::fleet {
namespace {

struct FleetFixture : public ::testing::Test {
  FleetFixture() : net(std::make_unique<net::FixedLatencyModel>(millis(5)), 1, {&metrics}) {
    platform = platform::make_platform(platform::PlatformId::kZoom, net, 11);
  }

  RelayFleet make_fleet(int size, PlacementPolicy policy, int overflow = 0) {
    RelayFleet::Config fc;
    fc.size = size;
    fc.policy = policy;
    fc.overflow_shard_size = overflow;
    return RelayFleet{net, *platform, fc};
  }

  const GeoPoint& site_location(std::size_t i) {
    return platform::platform_sites(platform::PlatformId::kZoom)[i].location;
  }

  MetricsRegistry metrics;
  net::Network net;
  std::unique_ptr<platform::BasePlatform> platform;
};

TEST(PlacementPolicy_, ParseRoundTripsAndRejectsUnknown) {
  for (const auto policy : {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
                            PlacementPolicy::kLocality}) {
    EXPECT_EQ(parse_policy(policy_name(policy)), policy);
  }
  EXPECT_EQ(parse_policy("round-robin"), PlacementPolicy::kRoundRobin);
  EXPECT_EQ(parse_policy("least-loaded"), PlacementPolicy::kLeastLoaded);
  EXPECT_THROW(parse_policy("random"), std::invalid_argument);
}

TEST_F(FleetFixture, RejectsEmptyFleet) {
  EXPECT_THROW(make_fleet(0, PlacementPolicy::kRoundRobin), std::invalid_argument);
}

TEST_F(FleetFixture, RoundRobinCyclesMeetingsAcrossSlots) {
  RelayFleet fleet = make_fleet(3, PlacementPolicy::kRoundRobin);
  const GeoPoint loc = site_location(0);
  platform::RelayServer* r1 = fleet.home_for(1, 1, loc);
  platform::RelayServer* r2 = fleet.home_for(2, 1, loc);
  platform::RelayServer* r3 = fleet.home_for(3, 1, loc);
  platform::RelayServer* r4 = fleet.home_for(4, 1, loc);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1, fleet.relay_of_slot(0));
  EXPECT_EQ(r2, fleet.relay_of_slot(1));
  EXPECT_EQ(r3, fleet.relay_of_slot(2));
  EXPECT_EQ(r4, r1);  // cursor wrapped
  EXPECT_EQ(fleet.slot_meetings(0), 2);
  EXPECT_EQ(fleet.slot_meetings(1), 1);
  EXPECT_EQ(fleet.slot_meetings(2), 1);
}

TEST_F(FleetFixture, HomeForIsIdempotentPerMember) {
  RelayFleet fleet = make_fleet(2, PlacementPolicy::kRoundRobin);
  platform::RelayServer* first = fleet.home_for(1, 1, site_location(0));
  EXPECT_EQ(fleet.home_for(1, 1, site_location(1)), first);
  EXPECT_EQ(fleet.slot_participants(0), 1);  // not double-counted
}

TEST_F(FleetFixture, LeastLoadedPicksFewestParticipants) {
  RelayFleet fleet = make_fleet(2, PlacementPolicy::kLeastLoaded);
  const GeoPoint loc = site_location(0);
  for (platform::ParticipantId m = 1; m <= 3; ++m) fleet.home_for(1, m, loc);
  EXPECT_EQ(fleet.slot_participants(0), 3);
  // A new meeting lands on the idle slot, not the loaded one.
  platform::RelayServer* r = fleet.home_for(2, 1, loc);
  EXPECT_EQ(r, fleet.relay_of_slot(1));
  EXPECT_EQ(fleet.slot_participants(1), 1);
}

TEST_F(FleetFixture, LocalityPicksNearestSite) {
  RelayFleet fleet = make_fleet(3, PlacementPolicy::kLocality);
  for (std::size_t i : {2u, 0u, 1u}) {
    platform::RelayServer* r =
        fleet.home_for(static_cast<platform::MeetingId>(10 + i), 1, site_location(i));
    EXPECT_EQ(r, fleet.relay_of_slot(static_cast<int>(i))) << "member near site " << i;
  }
}

TEST_F(FleetFixture, OverflowOpensTrunkedShardThenYieldsToCapacity) {
  RelayFleet fleet = make_fleet(2, PlacementPolicy::kRoundRobin, /*overflow=*/2);
  const GeoPoint loc = site_location(0);
  for (platform::ParticipantId m = 1; m <= 4; ++m) fleet.home_for(1, m, loc);
  // 2 members filled slot 0's shard, the next 2 a fresh shard on slot 1 —
  // trunked both ways the moment the split happened.
  EXPECT_EQ(fleet.slot_participants(0), 2);
  EXPECT_EQ(fleet.slot_participants(1), 2);
  EXPECT_EQ(fleet.trunk_count(), 2u);
  EXPECT_NE(fleet.trunk(0, 1), nullptr);
  EXPECT_NE(fleet.trunk(1, 0), nullptr);
  // Both shards full and no spare slot: the soft limit yields — member 5
  // overflows into the least-populated surviving shard instead of failing.
  platform::RelayServer* r5 = fleet.home_for(1, 5, loc);
  EXPECT_EQ(r5, fleet.relay_of_slot(0));
  EXPECT_EQ(fleet.slot_participants(0), 3);
}

TEST_F(FleetFixture, LeaveAndMeetingEndReleaseLoad) {
  RelayFleet fleet = make_fleet(2, PlacementPolicy::kRoundRobin, /*overflow=*/2);
  const GeoPoint loc = site_location(0);
  for (platform::ParticipantId m = 1; m <= 4; ++m) fleet.home_for(1, m, loc);
  fleet.on_member_left(1, 1);
  EXPECT_EQ(fleet.slot_participants(0), 1);
  fleet.on_meeting_ended(1);  // members 2..4 never left() individually
  EXPECT_EQ(fleet.slot_participants(0), 0);
  EXPECT_EQ(fleet.slot_participants(1), 0);
  EXPECT_EQ(fleet.slot_meetings(0), 0);
  EXPECT_EQ(fleet.slot_meetings(1), 0);
}

TEST_F(FleetFixture, GaugesTrackHomedLoad) {
  RelayFleet fleet = make_fleet(2, PlacementPolicy::kRoundRobin);
  const GeoPoint loc = site_location(0);
  for (platform::ParticipantId m = 1; m <= 3; ++m) fleet.home_for(1, m, loc);
  EXPECT_EQ(metrics.gauge("fleet.relay0.participants").value(), 3.0);
  EXPECT_EQ(metrics.gauge("fleet.relay0.meetings").value(), 1.0);
  EXPECT_EQ(metrics.gauge("fleet.relay1.participants").value(), 0.0);
  fleet.on_meeting_ended(1);
  EXPECT_EQ(metrics.gauge("fleet.relay0.participants").value(), 0.0);
  EXPECT_EQ(metrics.gauge("fleet.relay0.participants").max(), 3.0);
}

TEST_F(FleetFixture, CrashFailoverRehomesOntoSurvivor) {
  RelayFleet fleet = make_fleet(2, PlacementPolicy::kLeastLoaded);
  const GeoPoint loc = site_location(0);
  fleet.home_for(1, 1, loc);
  fleet.home_for(1, 2, loc);
  platform::RelayServer* dead = fleet.relay_of_slot(0);
  ASSERT_NE(dead, nullptr);
  dead->crash();
  fleet.on_relay_crashed(dead);
  // Both members were transferred eagerly; rehome (the reconnect path's
  // lookup) lands them on the survivor.
  platform::RelayServer* survivor = fleet.relay_of_slot(1);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(fleet.rehome(1, 1), survivor);
  EXPECT_EQ(fleet.rehome(1, 2), survivor);
  EXPECT_EQ(fleet.slot_participants(0), 0);
  EXPECT_EQ(fleet.slot_participants(1), 2);
  EXPECT_EQ(fleet.slot_meetings(0), 0);
  EXPECT_EQ(fleet.slot_meetings(1), 1);
  // Late joiners to the meeting now fill the survivor's shard.
  EXPECT_EQ(fleet.home_for(1, 3, loc), survivor);
}

TEST_F(FleetFixture, FleetOfOneWaitsForRestart) {
  RelayFleet fleet = make_fleet(1, PlacementPolicy::kLeastLoaded);
  const GeoPoint loc = site_location(0);
  platform::RelayServer* relay = fleet.home_for(1, 1, loc);
  ASSERT_NE(relay, nullptr);
  relay->crash();
  fleet.on_relay_crashed(relay);
  // No survivor: members keep their slot and the reconnect path backs off
  // until the relay restarts (the PR 5 single-relay behavior).
  EXPECT_EQ(fleet.rehome(1, 1), nullptr);
  EXPECT_EQ(fleet.home_for(1, 1, loc), nullptr);
  EXPECT_EQ(fleet.home_for(2, 1, loc), nullptr);  // whole fleet down
  EXPECT_EQ(fleet.slot_participants(0), 1);       // load never moved
  relay->restart();
  EXPECT_EQ(fleet.rehome(1, 1), relay);
}

}  // namespace
}  // namespace vc::fleet
