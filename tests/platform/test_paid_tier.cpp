#include <gtest/gtest.h>

#include <memory>

#include "platform/base_platform.h"

namespace vc::platform {
namespace {

const GeoPoint kZurich{47.38, 8.54};
const GeoPoint kCalifornia{37.8, -122.4};
const GeoPoint kVirginia{38.9, -77.4};

struct PaidTierFixture : public ::testing::Test {
  PaidTierFixture() : net(std::make_unique<net::GeoLatencyModel>(), 1) {}

  ClientRef make_client(const std::string& name, GeoPoint where, std::uint16_t port = 47000) {
    net::Host& h = net.add_host(name, where);
    h.udp_bind(port);
    return ClientRef{&h, port, DeviceClass::kCloudVm, ViewMode::kFullScreen, true};
  }

  GeoPoint relay_location(WebexPlatform& webex, GeoPoint host_loc) {
    const int id = ++counter;
    const auto host =
        make_client("h-" + std::to_string(id), host_loc, static_cast<std::uint16_t>(48000 + id));
    RouteInfo route;
    webex.create_meeting(host, [&](RouteInfo r) { route = r; });
    return net.host(route.media_endpoint.ip)->location();
  }

  net::Network net;
  int counter = 0;
};

TEST_F(PaidTierFixture, PaidEuropeanMeetingsStayInEurope) {
  WebexPlatform paid{net, 5, WebexTier::kPaid};
  const GeoPoint relay = relay_location(paid, kZurich);
  EXPECT_GT(relay.lon_deg, -10.0);  // a European site
  EXPECT_LT(great_circle_km(relay, kZurich), 700.0);
}

TEST_F(PaidTierFixture, PaidWestCoastMeetingsStayWest) {
  WebexPlatform paid{net, 5, WebexTier::kPaid};
  const GeoPoint relay = relay_location(paid, kCalifornia);
  EXPECT_LT(great_circle_km(relay, kCalifornia), 500.0);
}

TEST_F(PaidTierFixture, FreeTierAlwaysUsEastRegardless) {
  WebexPlatform free_tier{net, 5, WebexTier::kFree};
  for (const GeoPoint loc : {kZurich, kCalifornia}) {
    const GeoPoint relay = relay_location(free_tier, loc);
    EXPECT_LT(great_circle_km(relay, kVirginia), 500.0);
  }
}

TEST_F(PaidTierFixture, PaidSitesIncludeBothContinents) {
  bool has_us = false;
  bool has_eu = false;
  for (const auto& s : webex_paid_sites()) {
    (s.location.lon_deg < -30 ? has_us : has_eu) = true;
  }
  EXPECT_TRUE(has_us);
  EXPECT_TRUE(has_eu);
  EXPECT_GT(webex_paid_sites().size(), platform_sites(PlatformId::kWebex).size());
}

TEST_F(PaidTierFixture, TierAccessor) {
  WebexPlatform paid{net, 5, WebexTier::kPaid};
  WebexPlatform free_tier{net, 6};
  EXPECT_EQ(paid.tier(), WebexTier::kPaid);
  EXPECT_EQ(free_tier.tier(), WebexTier::kFree);
}

}  // namespace
}  // namespace vc::platform
