// Relay and meeting lifecycle edge cases: teardown, re-registration,
// peer unlinking, view churn across re-joins, and membership churn
// mid-session.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "platform/base_platform.h"

namespace vc::platform {
namespace {

const GeoPoint kVirginia{38.9, -77.4};
const GeoPoint kCalifornia{37.8, -122.4};
const GeoPoint kLondon{51.51, -0.13};

struct LifecycleFixture : public ::testing::Test {
  LifecycleFixture() : net(std::make_unique<net::FixedLatencyModel>(millis(5)), 1) {}

  ClientRef make_client(const std::string& name, GeoPoint where, std::uint16_t port,
                        std::vector<net::Packet>* sink = nullptr) {
    net::Host& h = net.add_host(name, where);
    auto& sock = h.udp_bind(port);
    sock.on_receive([sink](const net::Packet& p) {
      if (sink != nullptr) sink->push_back(p);
    });
    return ClientRef{&h, port, DeviceClass::kCloudVm, ViewMode::kFullScreen, true};
  }

  void send_video(const ClientRef& from, net::Endpoint to, ParticipantId origin) {
    net::Packet p;
    p.dst = to;
    p.l7_len = 900;
    p.kind = net::StreamKind::kVideo;
    p.origin_id = origin;
    from.host->udp_socket(from.media_port)->send(std::move(p));
  }

  net::Network net;
};

TEST_F(LifecycleFixture, EndMeetingStopsForwarding) {
  WebexPlatform webex{net};
  std::vector<net::Packet> rx;
  const auto host = make_client("h", kVirginia, 47000);
  const auto p2 = make_client("p", kCalifornia, 47001, &rx);
  RouteInfo route;
  const auto meeting = webex.create_meeting(host, [&](RouteInfo r) { route = r; });
  webex.join(meeting, p2, [](RouteInfo) {});
  send_video(host, route.media_endpoint, 1);
  net.loop().run();
  ASSERT_EQ(rx.size(), 1u);

  webex.end_meeting(meeting);
  send_video(host, route.media_endpoint, 1);
  net.loop().run();
  EXPECT_EQ(rx.size(), 1u);  // relay no longer knows the meeting
}

TEST_F(LifecycleFixture, LeaveStopsDeliveryToLeaver) {
  WebexPlatform webex{net};
  std::vector<net::Packet> p2_rx;
  std::vector<net::Packet> p3_rx;
  const auto host = make_client("h", kVirginia, 47000);
  const auto p2 = make_client("p2", kCalifornia, 47001, &p2_rx);
  const auto p3 = make_client("p3", kCalifornia, 47002, &p3_rx);
  RouteInfo route;
  const auto meeting = webex.create_meeting(host, [&](RouteInfo r) { route = r; });
  const auto id2 = webex.join(meeting, p2, [](RouteInfo) {});
  webex.join(meeting, p3, [](RouteInfo) {});
  webex.leave(meeting, id2);
  send_video(host, route.media_endpoint, 1);
  net.loop().run();
  EXPECT_TRUE(p2_rx.empty());
  EXPECT_EQ(p3_rx.size(), 1u);
}

TEST_F(LifecycleFixture, ViewChurnUpdatesSubscriptionsRepeatedly) {
  // A view is fixed at join: the receiver churns through the layouts by
  // leaving and re-joining with each one, and every join re-derives what the
  // relay forwards to it. p3 stays in throughout, so the meeting keeps its
  // relay.
  ZoomPlatform zoom{net};
  std::vector<net::Packet> rx;
  const auto host = make_client("h", kVirginia, 47000);
  auto p2 = make_client("p2", kCalifornia, 47001, &rx);
  const auto p3 = make_client("p3", kCalifornia, 47002);
  RouteInfo route;
  const auto meeting = zoom.create_meeting(host, [&](RouteInfo r) { route = r; });
  auto id2 = zoom.join(meeting, p2, [](RouteInfo) {});
  zoom.join(meeting, p3, [](RouteInfo) {});
  auto rejoin_as = [&](ViewMode view) {
    zoom.leave(meeting, id2);
    p2.view = view;
    id2 = zoom.join(meeting, p2, [](RouteInfo) {});
  };

  // Full screen: full-rate main stream.
  send_video(host, route.media_endpoint, 1);
  net.loop().run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].l7_len, 900);

  // Gallery: thinned tiles.
  rejoin_as(ViewMode::kGallery);
  send_video(host, route.media_endpoint, 1);
  net.loop().run();
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_LT(rx[1].l7_len, 900);

  // Audio-only: nothing.
  rejoin_as(ViewMode::kAudioOnly);
  send_video(host, route.media_endpoint, 1);
  net.loop().run();
  EXPECT_EQ(rx.size(), 2u);

  // And back to full screen.
  rejoin_as(ViewMode::kFullScreen);
  send_video(host, route.media_endpoint, 1);
  net.loop().run();
  ASSERT_EQ(rx.size(), 3u);
  EXPECT_EQ(rx[2].l7_len, 900);
}

TEST_F(LifecycleFixture, MeetCrossFrontEndTeardown) {
  MeetPlatform meet{net};
  std::vector<net::Packet> rx;
  const auto host = make_client("h", kVirginia, 47000);
  const auto p2 = make_client("p2", kLondon, 47001, &rx);
  RouteInfo host_route;
  const auto meeting = meet.create_meeting(host, [&](RouteInfo r) { host_route = r; });
  meet.join(meeting, p2, [](RouteInfo) {});
  send_video(host, host_route.media_endpoint, 1);
  net.loop().run();
  ASSERT_EQ(rx.size(), 1u);  // delivered across two front-ends

  meet.end_meeting(meeting);
  send_video(host, host_route.media_endpoint, 1);
  net.loop().run();
  EXPECT_EQ(rx.size(), 1u);
}

TEST_F(LifecycleFixture, SequentialMeetingsOnSamePlatform) {
  // Meetings created one after another must not interfere; Zoom gets a
  // fresh relay each time.
  ZoomPlatform zoom{net};
  std::vector<net::Endpoint> endpoints;
  for (int s = 0; s < 3; ++s) {
    std::vector<net::Packet> rx;
    const auto host = make_client("h" + std::to_string(s), kVirginia,
                                  static_cast<std::uint16_t>(48000 + s * 10));
    const auto a = make_client("a" + std::to_string(s), kCalifornia,
                               static_cast<std::uint16_t>(48001 + s * 10), &rx);
    const auto b = make_client("b" + std::to_string(s), kVirginia,
                               static_cast<std::uint16_t>(48002 + s * 10));
    RouteInfo route;
    const auto meeting = zoom.create_meeting(host, [&](RouteInfo r) { route = r; });
    zoom.join(meeting, a, [](RouteInfo) {});
    zoom.join(meeting, b, [](RouteInfo) {});
    send_video(host, route.media_endpoint, 1);
    net.loop().run();
    EXPECT_EQ(rx.size(), 1u) << "session " << s;
    endpoints.push_back(route.media_endpoint);
    zoom.end_meeting(meeting);
  }
  EXPECT_NE(endpoints[0].ip, endpoints[1].ip);
  EXPECT_NE(endpoints[1].ip, endpoints[2].ip);
}

TEST_F(LifecycleFixture, LeaveUnknownParticipantIsNoop) {
  WebexPlatform webex{net};
  const auto host = make_client("h", kVirginia, 47000);
  const auto meeting = webex.create_meeting(host, [](RouteInfo) {});
  EXPECT_NO_THROW(webex.leave(meeting, 999));
  EXPECT_NO_THROW(webex.leave(12345, 1));
  EXPECT_NO_THROW(webex.end_meeting(54321));
  EXPECT_EQ(webex.participant_count(meeting), 1);
}

}  // namespace
}  // namespace vc::platform
