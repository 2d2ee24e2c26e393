#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "platform/relay.h"

namespace vc::platform {
namespace {

struct RelayFixture : public ::testing::Test {
  RelayFixture()
      : net(std::make_unique<net::FixedLatencyModel>(millis(5)), 1, {&metrics}),
        relay(net, "relay", GeoPoint{38.9, -77.4}, 8801,
              RelayServer::ForwardingDelay{millis(2), 0.0}) {}

  net::Host& make_client(const std::string& name, std::uint16_t port,
                         std::vector<net::Packet>* sink) {
    net::Host& h = net.add_host(name, GeoPoint{40.0, -75.0});
    auto& sock = h.udp_bind(port);
    sock.on_receive([sink](const net::Packet& p) {
      if (sink != nullptr) sink->push_back(p);
    });
    return h;
  }

  void send_media(net::Host& from, std::uint16_t port, net::StreamKind kind, std::uint32_t origin,
                  std::int64_t l7 = 1000, std::uint64_t seq = 0) {
    net::Packet p;
    p.dst = relay.endpoint();
    p.l7_len = l7;
    p.kind = kind;
    p.origin_id = origin;
    p.seq = seq;
    from.udp_socket(port)->send(std::move(p));
  }

  MetricsRegistry metrics;
  net::Network net;
  RelayServer relay;
};

TEST_F(RelayFixture, ForwardsToAllOthersNotSender) {
  std::vector<net::Packet> a_rx;
  std::vector<net::Packet> b_rx;
  std::vector<net::Packet> c_rx;
  net::Host& a = make_client("a", 100, &a_rx);
  net::Host& b = make_client("b", 100, &b_rx);
  net::Host& c = make_client("c", 100, &c_rx);
  relay.add_participant(1, 1, {a.ip(), 100});
  relay.add_participant(1, 2, {b.ip(), 100});
  relay.add_participant(1, 3, {c.ip(), 100});
  send_media(a, 100, net::StreamKind::kVideo, 1);
  net.loop().run();
  EXPECT_TRUE(a_rx.empty());  // never echoed back
  ASSERT_EQ(b_rx.size(), 1u);
  ASSERT_EQ(c_rx.size(), 1u);
  EXPECT_EQ(b_rx[0].l7_len, 1000);
  EXPECT_EQ(b_rx[0].origin_id, 1u);
  EXPECT_EQ(relay.stats().media_in, 1);
  EXPECT_EQ(relay.stats().media_forwarded, 2);
}

TEST_F(RelayFixture, UnregisteredSenderDropped) {
  std::vector<net::Packet> b_rx;
  net::Host& a = make_client("a", 100, nullptr);
  (void)a;
  net::Host& stranger = net.add_host("stranger", GeoPoint{0, 0});
  stranger.udp_bind(100);
  net::Host& b = make_client("b", 100, &b_rx);
  relay.add_participant(1, 2, {b.ip(), 100});
  net::Packet p;
  p.dst = relay.endpoint();
  p.l7_len = 500;
  p.kind = net::StreamKind::kVideo;
  stranger.udp_socket(100)->send(std::move(p));
  net.loop().run();
  EXPECT_TRUE(b_rx.empty());
}

TEST_F(RelayFixture, SubscriptionScaleThinsStream) {
  std::vector<net::Packet> b_rx;
  net::Host& a = make_client("a", 100, nullptr);
  net::Host& b = make_client("b", 100, &b_rx);
  relay.add_participant(1, 1, {a.ip(), 100});
  relay.add_participant(1, 2, {b.ip(), 100});
  relay.set_subscriptions(1, 2, {{1, 0.25}});
  send_media(a, 100, net::StreamKind::kVideo, 1, 1000);
  net.loop().run();
  ASSERT_EQ(b_rx.size(), 1u);
  EXPECT_EQ(b_rx[0].l7_len, 250);
  EXPECT_EQ(b_rx[0].payload, nullptr);  // thinned layer is not decodable
}

TEST_F(RelayFixture, ZeroScaleUnsubscribes) {
  std::vector<net::Packet> b_rx;
  net::Host& a = make_client("a", 100, nullptr);
  net::Host& b = make_client("b", 100, &b_rx);
  relay.add_participant(1, 1, {a.ip(), 100});
  relay.add_participant(1, 2, {b.ip(), 100});
  relay.set_subscriptions(1, 2, {{1, 0.0}});
  send_media(a, 100, net::StreamKind::kVideo, 1);
  net.loop().run();
  EXPECT_TRUE(b_rx.empty());
}

TEST_F(RelayFixture, AudioNeverThinned) {
  std::vector<net::Packet> b_rx;
  net::Host& a = make_client("a", 100, nullptr);
  net::Host& b = make_client("b", 100, &b_rx);
  relay.add_participant(1, 1, {a.ip(), 100});
  relay.add_participant(1, 2, {b.ip(), 100});
  relay.set_subscriptions(1, 2, {{1, 0.25}});
  send_media(a, 100, net::StreamKind::kAudio, 1, 225);
  net.loop().run();
  ASSERT_EQ(b_rx.size(), 1u);
  EXPECT_EQ(b_rx[0].l7_len, 225);
}

TEST_F(RelayFixture, AnswersProbesFromAnyone) {
  std::vector<net::Packet> rx;
  net::Host& prober = make_client("prober", 5555, &rx);
  net::Packet probe;
  probe.dst = relay.endpoint();
  probe.l7_len = 64;
  probe.kind = net::StreamKind::kProbe;
  probe.seq = 77;
  prober.udp_socket(5555)->send(std::move(probe));
  net.loop().run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].kind, net::StreamKind::kProbeReply);
  EXPECT_EQ(rx[0].seq, 77u);
  EXPECT_EQ(relay.stats().probes_answered, 1);
}

TEST_F(RelayFixture, ControlRoutedToConcernedParticipantOnly) {
  std::vector<net::Packet> a_rx;
  std::vector<net::Packet> c_rx;
  net::Host& a = make_client("a", 100, &a_rx);
  net::Host& b = make_client("b", 100, nullptr);
  net::Host& c = make_client("c", 100, &c_rx);
  relay.add_participant(1, 1, {a.ip(), 100});
  relay.add_participant(1, 2, {b.ip(), 100});
  relay.add_participant(1, 3, {c.ip(), 100});
  // b reports about participant 1's stream.
  send_media(b, 100, net::StreamKind::kControl, /*origin=*/1, 48);
  net.loop().run();
  ASSERT_EQ(a_rx.size(), 1u);
  EXPECT_EQ(a_rx[0].kind, net::StreamKind::kControl);
  EXPECT_TRUE(c_rx.empty());
}

TEST_F(RelayFixture, MeetingsAreIsolated) {
  std::vector<net::Packet> b_rx;
  std::vector<net::Packet> x_rx;
  net::Host& a = make_client("a", 100, nullptr);
  net::Host& b = make_client("b", 100, &b_rx);
  net::Host& x = make_client("x", 100, &x_rx);
  relay.add_participant(1, 1, {a.ip(), 100});
  relay.add_participant(1, 2, {b.ip(), 100});
  relay.add_participant(2, 1, {x.ip(), 100});
  send_media(a, 100, net::StreamKind::kVideo, 1);
  net.loop().run();
  EXPECT_EQ(b_rx.size(), 1u);
  EXPECT_TRUE(x_rx.empty());
}

TEST_F(RelayFixture, RemoveParticipantStopsDelivery) {
  std::vector<net::Packet> b_rx;
  net::Host& a = make_client("a", 100, nullptr);
  net::Host& b = make_client("b", 100, &b_rx);
  relay.add_participant(1, 1, {a.ip(), 100});
  relay.add_participant(1, 2, {b.ip(), 100});
  relay.remove_participant(1, 2);
  send_media(a, 100, net::StreamKind::kVideo, 1);
  net.loop().run();
  EXPECT_TRUE(b_rx.empty());
}

TEST_F(RelayFixture, PeerForwardingOnceNoLoops) {
  RelayServer peer{net, "peer", GeoPoint{50.0, 8.0}, 8801,
                   RelayServer::ForwardingDelay{millis(2), 0.0}};
  std::vector<net::Packet> a_rx;
  std::vector<net::Packet> b_rx;
  net::Host& a = make_client("a", 100, &a_rx);
  net::Host& b = make_client("b", 100, &b_rx);
  relay.add_participant(1, 1, {a.ip(), 100});
  peer.add_participant(1, 2, {b.ip(), 100});
  relay.link_peer(1, &peer);
  peer.link_peer(1, &relay);
  send_media(a, 100, net::StreamKind::kVideo, 1);
  net.loop().run();
  // b gets exactly one copy via the peer leg; nothing bounces back to a.
  ASSERT_EQ(b_rx.size(), 1u);
  EXPECT_TRUE(a_rx.empty());
}

TEST_F(RelayFixture, MediaAndPeerForwardsCountedSeparately) {
  // Regression: the old single `media_forwarded` counter mixed participant
  // copies with peer front-end forwards, overstating per-receiver fan-out.
  // One ingest with one local receiver and one linked peer must count one
  // media copy and one peer copy, never two of either.
  RelayServer peer{net, "peer", GeoPoint{50.0, 8.0}, 8801,
                   RelayServer::ForwardingDelay{millis(2), 0.0}};
  std::vector<net::Packet> b_rx;
  std::vector<net::Packet> c_rx;
  net::Host& a = make_client("a", 100, nullptr);
  net::Host& b = make_client("b", 100, &b_rx);
  net::Host& c = make_client("c", 100, &c_rx);
  relay.add_participant(1, 1, {a.ip(), 100});
  relay.add_participant(1, 2, {b.ip(), 100});
  peer.add_participant(1, 3, {c.ip(), 100});
  relay.link_peer(1, &peer);
  peer.link_peer(1, &relay);
  send_media(a, 100, net::StreamKind::kVideo, 1);
  net.loop().run();
  ASSERT_EQ(b_rx.size(), 1u);
  ASSERT_EQ(c_rx.size(), 1u);
  EXPECT_EQ(relay.stats().media_forwarded, 1);
  EXPECT_EQ(relay.stats().peer_forwarded, 1);
  // Both relays report into the network's registry: one participant copy
  // each, and the one peer copy counted apart from them.
  EXPECT_EQ(metrics.counters().at("relay.media_forwarded").value(), 2);
  EXPECT_EQ(metrics.counters().at("relay.peer_forwarded").value(), 1);
  // The fan-out histogram sees participant copies only: one observation of
  // value 1 per relay, never a 2.
  const auto& fan_out = metrics.histograms().at("relay.fan_out").stats();
  EXPECT_EQ(fan_out.count(), 2u);
  EXPECT_EQ(fan_out.max(), 1.0);
  // The peer relay forwarded to its own participant and, having received
  // the packet from a peer, never forwarded onward to peers again.
  EXPECT_EQ(peer.stats().media_forwarded, 1);
  EXPECT_EQ(peer.stats().peer_forwarded, 0);
}

TEST_F(RelayFixture, DepartureStateReclaimedWithMembership) {
  // Regression: the predecessor kept departure state in an endpoint-keyed
  // map that only ever grew. It now lives inside the Participant/PeerLink
  // records, so membership removal must reclaim it.
  RelayServer peer{net, "peer", GeoPoint{50.0, 8.0}, 8801,
                   RelayServer::ForwardingDelay{millis(2), 0.0}};
  net::Host& a = make_client("a", 100, nullptr);
  net::Host& b = make_client("b", 100, nullptr);
  EXPECT_EQ(relay.departure_state_size(), 0u);
  relay.add_participant(1, 1, {a.ip(), 100});
  relay.add_participant(1, 2, {b.ip(), 100});
  relay.link_peer(1, &peer);
  EXPECT_EQ(relay.departure_state_size(), 3u);
  // Exercise the pipeline so the state is live, not just allocated.
  send_media(a, 100, net::StreamKind::kVideo, 1);
  net.loop().run();
  relay.remove_participant(1, 2);
  EXPECT_EQ(relay.departure_state_size(), 2u);
  relay.unlink_peer(1, &peer);
  EXPECT_EQ(relay.departure_state_size(), 1u);
  relay.remove_meeting(1);
  EXPECT_EQ(relay.departure_state_size(), 0u);
}

TEST_F(RelayFixture, DepartureStateStableAcrossRepeatedSessions) {
  // Join/leave cycles (fresh clients every session, same relay) must not
  // accumulate per-destination state.
  net::Host& a = make_client("a", 100, nullptr);
  net::Host& b = make_client("b", 100, nullptr);
  for (int s = 0; s < 50; ++s) {
    relay.add_participant(1, 1, {a.ip(), static_cast<std::uint16_t>(100)});
    relay.add_participant(1, 2, {b.ip(), static_cast<std::uint16_t>(100)});
    send_media(a, 100, net::StreamKind::kVideo, 1);
    net.loop().run();
    relay.remove_meeting(1);
  }
  EXPECT_EQ(relay.departure_state_size(), 0u);
}

TEST_F(RelayFixture, JitteredForwardingNeverReordersAStream) {
  // The per-destination departure floor makes the pipeline FIFO even though
  // each packet draws an independent jittered processing delay.
  RelayServer jittery{net, "jittery", GeoPoint{38.9, -77.4}, 9000,
                      RelayServer::ForwardingDelay{millis(2), 5.0}};
  std::vector<net::Packet> b_rx;
  net::Host& a = make_client("a", 100, nullptr);
  net::Host& b = make_client("b", 100, &b_rx);
  jittery.add_participant(1, 1, {a.ip(), 100});
  jittery.add_participant(1, 2, {b.ip(), 100});
  for (std::uint64_t i = 0; i < 200; ++i) {
    net::Packet p;
    p.dst = jittery.endpoint();
    p.l7_len = 1000;
    p.kind = net::StreamKind::kVideo;
    p.origin_id = 1;
    p.seq = i;
    a.udp_socket(100)->send(std::move(p));
  }
  net.loop().run();
  ASSERT_EQ(b_rx.size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) EXPECT_EQ(b_rx[i].seq, i);
}

TEST_F(RelayFixture, ForwardingDelayApplied) {
  std::vector<net::Packet> b_rx;
  net::Host& a = make_client("a", 100, nullptr);
  net::Host& b = make_client("b", 100, &b_rx);
  relay.add_participant(1, 1, {a.ip(), 100});
  relay.add_participant(1, 2, {b.ip(), 100});
  SimTime arrival{};
  b.udp_socket(100)->on_receive([&](const net::Packet&) { arrival = net.now(); });
  send_media(a, 100, net::StreamKind::kVideo, 1);
  net.loop().run();
  // 5 ms client→relay + 2 ms processing + 5 ms relay→client.
  EXPECT_EQ(arrival, SimTime{12'000});
}

}  // namespace
}  // namespace vc::platform
