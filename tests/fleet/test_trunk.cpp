// Trunk behavior: FIFO delivery through the shaper + propagation pipeline,
// meeting-tag demux at the far relay, capacity drops, and egress
// registration lifetime.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fleet/trunk.h"
#include "net/network.h"
#include "platform/relay.h"

namespace vc::fleet {
namespace {

constexpr platform::MeetingId kMeeting = 7;

struct TrunkFixture : public ::testing::Test {
  TrunkFixture()
      : net(std::make_unique<net::FixedLatencyModel>(millis(5)), 1),
        relay_a(net, "relay-a", GeoPoint{38.9, -77.4}, 8801,
                platform::RelayServer::ForwardingDelay{millis(2), 0.0}),
        relay_b(net, "relay-b", GeoPoint{37.4, -122.1}, 8802,
                platform::RelayServer::ForwardingDelay{millis(2), 0.0}) {
    relay_a.link_peer(kMeeting, &relay_b);
    relay_b.link_peer(kMeeting, &relay_a);
  }

  net::Host& make_client(const std::string& name, std::vector<net::Packet>* sink,
                         std::vector<SimTime>* arrivals = nullptr) {
    net::Host& h = net.add_host(name, GeoPoint{40.0, -75.0});
    auto& sock = h.udp_bind(100);
    sock.on_receive([this, sink, arrivals](const net::Packet& p) {
      if (sink != nullptr) sink->push_back(p);
      if (arrivals != nullptr) arrivals->push_back(net.loop().now());
    });
    return h;
  }

  void send_media(net::Host& from, std::uint32_t origin, std::uint64_t seq) {
    net::Packet p;
    p.dst = relay_a.endpoint();
    p.l7_len = 1000;
    p.kind = net::StreamKind::kVideo;
    p.origin_id = origin;
    p.seq = seq;
    from.udp_socket(100)->send(std::move(p));
  }

  net::Network net;
  platform::RelayServer relay_a;
  platform::RelayServer relay_b;
};

TEST_F(TrunkFixture, DeliversAcrossTheTrunkInFifoOrder) {
  Trunk::Config tc;
  tc.propagation = millis(30);
  Trunk trunk{net, relay_a, relay_b, tc};

  std::vector<net::Packet> rx;
  std::vector<SimTime> arrivals;
  net::Host& sender = make_client("sender", nullptr);
  net::Host& receiver = make_client("receiver", &rx, &arrivals);
  relay_a.add_participant(kMeeting, 1, {sender.ip(), 100});
  relay_b.add_participant(kMeeting, 2, {receiver.ip(), 100});

  constexpr int kPackets = 5;
  for (int i = 0; i < kPackets; ++i) send_media(sender, 1, static_cast<std::uint64_t>(i));
  net.loop().run();

  ASSERT_EQ(rx.size(), static_cast<std::size_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    EXPECT_EQ(rx[static_cast<std::size_t>(i)].seq, static_cast<std::uint64_t>(i))
        << "trunk reordered packet " << i;
  }
  EXPECT_EQ(trunk.stats().delivered_packets, kPackets);
  EXPECT_GT(trunk.stats().delivered_bytes, kPackets * 1000);
  EXPECT_EQ(relay_b.stats().trunk_in, kPackets);
  // The far members saw the packets as plain forwarded media.
  EXPECT_EQ(relay_b.stats().media_forwarded, kPackets);
  // client->A latency + A forwarding + propagation alone put the first
  // arrival past the trunk's 30 ms one-way delay.
  EXPECT_GE((arrivals.front() - SimTime{}).millis(), 30.0);
}

TEST_F(TrunkFixture, IngestDemuxesByMeetingTag) {
  std::vector<net::Packet> rx;
  net::Host& receiver = make_client("receiver", &rx);
  relay_b.add_participant(kMeeting, 2, {receiver.ip(), 100});

  net::Packet stray;
  stray.l7_len = 500;
  stray.kind = net::StreamKind::kVideo;
  stray.origin_id = 9;
  stray.meeting = 999;  // no such meeting on relay-b
  relay_b.ingest_trunk(stray);

  net::Packet good = stray;
  good.meeting = kMeeting;
  relay_b.ingest_trunk(good);
  net.loop().run();

  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].origin_id, 9u);
  EXPECT_EQ(relay_b.stats().trunk_in, 1);  // the stray never counted
}

TEST_F(TrunkFixture, SaturatedTrunkDropsLikeABackboneLink) {
  Trunk::Config tc;
  tc.rate = DataRate::kbps(64);
  tc.burst_bytes = 1200;
  tc.queue_limit_packets = 2;
  Trunk trunk{net, relay_a, relay_b, tc};

  std::vector<net::Packet> rx;
  net::Host& sender = make_client("sender", nullptr);
  net::Host& receiver = make_client("receiver", &rx);
  relay_a.add_participant(kMeeting, 1, {sender.ip(), 100});
  relay_b.add_participant(kMeeting, 2, {receiver.ip(), 100});

  constexpr int kPackets = 20;
  for (int i = 0; i < kPackets; ++i) send_media(sender, 1, static_cast<std::uint64_t>(i));
  net.loop().run();

  const auto& shaper = trunk.shaper_stats();
  EXPECT_GT(shaper.dropped_packets, 0);
  EXPECT_EQ(shaper.forwarded_packets + shaper.dropped_packets, kPackets);
  EXPECT_EQ(trunk.stats().delivered_packets, shaper.forwarded_packets);
  EXPECT_EQ(rx.size(), static_cast<std::size_t>(shaper.forwarded_packets));
}

TEST_F(TrunkFixture, DefaultConfigIsTheFleetBackbone) {
  // RelayFleet builds every inter-slot trunk as Trunk::Config{.propagation =
  // ...}, so these defaults (500 Mbps, 64 kB burst, 4096-packet queue) are the
  // fleet's backbone. A same-instant flood pins all three: the burst and the
  // queue fix how many packets get through, the rate when the last one lands.
  Trunk trunk{net, relay_a, relay_b, Trunk::Config{.propagation = millis(1)}};

  std::vector<SimTime> arrivals;
  net::Host& sender = make_client("sender", nullptr);
  net::Host& receiver = make_client("receiver", nullptr, &arrivals);
  relay_a.add_participant(kMeeting, 1, {sender.ip(), 100});
  relay_b.add_participant(kMeeting, 2, {receiver.ip(), 100});

  constexpr int kPackets = 4400;
  for (int i = 0; i < kPackets; ++i) send_media(sender, 1, static_cast<std::uint64_t>(i));
  net.loop().run();

  const auto& shaper = trunk.shaper_stats();
  EXPECT_EQ(shaper.forwarded_packets, 4158);
  EXPECT_EQ(shaper.dropped_packets, kPackets - 4158);
  ASSERT_EQ(arrivals.size(), static_cast<std::size_t>(4158));
  EXPECT_EQ(arrivals.back().micros(), 82368);
}

TEST_F(TrunkFixture, DestructorDeregistersEgress) {
  std::vector<net::Packet> rx;
  net::Host& sender = make_client("sender", nullptr);
  net::Host& receiver = make_client("receiver", &rx);
  relay_a.add_participant(kMeeting, 1, {sender.ip(), 100});
  relay_b.add_participant(kMeeting, 2, {receiver.ip(), 100});

  { Trunk scoped{net, relay_a, relay_b, Trunk::Config{}}; }
  // With the trunk gone, relay-a falls back to plain socket delivery toward
  // relay-b's endpoint — media still arrives, just untrunked.
  send_media(sender, 1, 0);
  net.loop().run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(relay_b.stats().trunk_in, 0);
}

}  // namespace
}  // namespace vc::fleet
