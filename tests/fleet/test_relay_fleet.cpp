// RelayFleet balancer behavior driven through the MeetingPlacer interface:
// placement policies, overflow sharding, load release, crash failover, and
// the fleet-of-1 wait-for-restart fallback; then the fleet-membership
// invariant driven through BasePlatform's placer path.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

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

// Fleet membership through the platform: after create/join with overflow, a
// relay crash, notify_relay_crashed and every member's reconnect, each
// member's last route names the live relay of exactly one fleet slot, and the
// slots' participant counts add up to the roster. Zoom's two-party P2P
// short-circuit and Meet's front-ends are both bypassed under a placer.
TEST(FleetMembership, EveryMemberHomedOnExactlyOneLiveSlot) {
  for (const auto id :
       {platform::PlatformId::kZoom, platform::PlatformId::kWebex, platform::PlatformId::kMeet}) {
    SCOPED_TRACE(std::string{platform::platform_name(id)});
    net::Network net(std::make_unique<net::FixedLatencyModel>(millis(5)), 1);
    auto plat = platform::make_platform(id, net, 11);
    RelayFleet fleet{net, *plat,
                     RelayFleet::Config{.size = 3,
                                        .policy = PlacementPolicy::kRoundRobin,
                                        .overflow_shard_size = 2,
                                        .metrics = false}};
    constexpr int kMembers = 5;
    const GeoPoint loc = platform::platform_sites(id).front().location;
    std::map<platform::ParticipantId, platform::RouteInfo> last_route;
    auto client = [&](int i) {
      platform::ClientRef ref;
      ref.host = &net.add_host("client" + std::to_string(i), loc);
      ref.media_port = 5000;
      return ref;
    };
    auto recorder = [&](platform::ParticipantId member) {
      return [&last_route, member](platform::RouteInfo r) { last_route[member] = r; };
    };
    const platform::MeetingId meeting = plat->create_meeting(client(1), recorder(1));
    for (int i = 2; i <= kMembers; ++i) {
      plat->join(meeting, client(i), recorder(static_cast<platform::ParticipantId>(i)));
    }

    auto expect_homed_once = [&] {
      ASSERT_EQ(last_route.size(), static_cast<std::size_t>(kMembers));
      int homed = 0;
      for (const auto& [member, route] : last_route) {
        EXPECT_FALSE(route.p2p) << "member " << member;
        int slots = 0;
        for (int s = 0; s < fleet.size(); ++s) {
          const platform::RelayServer* r = fleet.relay_of_slot(s);
          if (r != nullptr && !r->crashed() && r->endpoint() == route.media_endpoint) ++slots;
        }
        EXPECT_EQ(slots, 1) << "member " << member;
      }
      for (int s = 0; s < fleet.size(); ++s) homed += fleet.slot_participants(s);
      EXPECT_EQ(homed, kMembers);
    };
    expect_homed_once();
    // Overflow split the meeting 2/2/1 over all three slots.
    EXPECT_EQ(fleet.slot_participants(0), 2);
    EXPECT_EQ(fleet.slot_participants(1), 2);
    EXPECT_EQ(fleet.slot_participants(2), 1);

    platform::RelayServer* dead = fleet.relay_of_slot(0);
    ASSERT_NE(dead, nullptr);
    dead->crash();
    plat->notify_relay_crashed(dead);
    EXPECT_EQ(last_route[1].media_endpoint, net::Endpoint{});
    EXPECT_EQ(last_route[2].media_endpoint, net::Endpoint{});
    for (platform::ParticipantId m = 1; m <= kMembers; ++m) {
      EXPECT_TRUE(plat->reconnect(meeting, m)) << "member " << m;
    }
    expect_homed_once();
    EXPECT_EQ(fleet.slot_participants(0), 0);
  }
}

}  // namespace
}  // namespace vc::fleet
