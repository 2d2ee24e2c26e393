#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"

namespace vc::net {
namespace {

const GeoPoint kEast{38.9, -77.4};
const GeoPoint kWest{37.8, -122.4};

std::unique_ptr<Network> fixed_net(SimDuration delay = millis(10), Instruments instruments = {}) {
  return std::make_unique<Network>(std::make_unique<FixedLatencyModel>(delay), 1, instruments);
}

TEST(Network, AssignsDistinctIps) {
  auto net = fixed_net();
  Host& a = net->add_host("a", kEast);
  Host& b = net->add_host("b", kWest);
  EXPECT_NE(a.ip(), b.ip());
  EXPECT_EQ(net->host(a.ip()), &a);
  EXPECT_EQ(net->host(IpAddr{0xDEADBEEF}), nullptr);
}

TEST(Network, DeliversWithModelDelay) {
  auto net = fixed_net(millis(25));
  Host& a = net->add_host("a", kEast);
  Host& b = net->add_host("b", kWest);
  auto& tx = a.udp_bind(1000);
  auto& rx = b.udp_bind(2000);
  SimTime arrival{};
  rx.on_receive([&](const Packet&) { arrival = net->now(); });
  tx.send_to(Endpoint{b.ip(), 2000}, 100);
  net->loop().run();
  EXPECT_EQ(arrival, SimTime{25'000});
  EXPECT_EQ(net->stats().packets_delivered, 1);
}

TEST(Network, PacketCarriesSourceAndSizes) {
  auto net = fixed_net();
  Host& a = net->add_host("a", kEast);
  Host& b = net->add_host("b", kWest);
  auto& tx = a.udp_bind(1234);
  auto& rx = b.udp_bind(5678);
  Packet got;
  rx.on_receive([&](const Packet& p) { got = p; });
  tx.send_to(Endpoint{b.ip(), 5678}, 500, StreamKind::kVideo, 42);
  net->loop().run();
  EXPECT_EQ(got.src, (Endpoint{a.ip(), 1234}));
  EXPECT_EQ(got.l7_len, 500);
  EXPECT_EQ(got.wire_len(), 528);  // + IP/UDP headers
  EXPECT_EQ(got.kind, StreamKind::kVideo);
  EXPECT_EQ(got.seq, 42u);
}

TEST(Network, UnroutableDestinationCounted) {
  auto net = fixed_net();
  Host& a = net->add_host("a", kEast);
  auto& tx = a.udp_bind(1000);
  tx.send_to(Endpoint{IpAddr{0x0A0000FF}, 9}, 10);
  net->loop().run();
  EXPECT_EQ(net->stats().packets_unroutable, 1);
  EXPECT_EQ(net->stats().packets_delivered, 0);
}

TEST(Network, PortWithoutSocketCounted) {
  auto net = fixed_net();
  Host& a = net->add_host("a", kEast);
  Host& b = net->add_host("b", kWest);
  auto& tx = a.udp_bind(1000);
  tx.send_to(Endpoint{b.ip(), 7777}, 10);
  net->loop().run();
  EXPECT_EQ(b.unroutable_packets(), 1);
}

TEST(Network, LossDropsApproximatelyP) {
  auto net = fixed_net();
  net->set_loss_probability(0.5);
  Host& a = net->add_host("a", kEast);
  Host& b = net->add_host("b", kWest);
  auto& tx = a.udp_bind(1000);
  auto& rx = b.udp_bind(2000);
  int received = 0;
  rx.on_receive([&](const Packet&) { ++received; });
  for (int i = 0; i < 2000; ++i) tx.send_to(Endpoint{b.ip(), 2000}, 10);
  net->loop().run();
  EXPECT_NEAR(received, 1000, 120);
  EXPECT_EQ(net->stats().packets_lost + net->stats().packets_delivered, 2000);
}

TEST(Network, TapsSeeBothDirections) {
  auto net = fixed_net();
  Host& a = net->add_host("a", kEast);
  Host& b = net->add_host("b", kWest);
  auto& tx = a.udp_bind(1000);
  auto& rx = b.udp_bind(2000);
  rx.on_receive([](const Packet&) {});
  std::vector<Direction> a_dirs;
  std::vector<Direction> b_dirs;
  a.add_tap([&](Direction d, const Packet&, SimTime) { a_dirs.push_back(d); });
  b.add_tap([&](Direction d, const Packet&, SimTime) { b_dirs.push_back(d); });
  tx.send_to(Endpoint{b.ip(), 2000}, 10);
  net->loop().run();
  ASSERT_EQ(a_dirs.size(), 1u);
  EXPECT_EQ(a_dirs[0], Direction::kOutgoing);
  ASSERT_EQ(b_dirs.size(), 1u);
  EXPECT_EQ(b_dirs[0], Direction::kIncoming);
}

TEST(Network, RemovedTapStopsSeeingTraffic) {
  auto net = fixed_net();
  Host& a = net->add_host("a", kEast);
  auto& tx = a.udp_bind(1000);
  int seen = 0;
  const auto tap = a.add_tap([&](Direction, const Packet&, SimTime) { ++seen; });
  tx.send_to(Endpoint{a.ip(), 1000}, 10);
  net->loop().run();
  a.remove_tap(tap);
  tx.send_to(Endpoint{a.ip(), 1000}, 10);
  net->loop().run();
  EXPECT_EQ(seen, 2);  // out+in of the first packet only... (loopback both taps)
}

TEST(Network, GeoLatencyIncreasesWithDistance) {
  Network net{std::make_unique<GeoLatencyModel>(), 3};
  Host& east = net.add_host("east", kEast);
  Host& west = net.add_host("west", kWest);
  Host& east2 = net.add_host("east2", GeoPoint{39.0, -77.0});
  auto& tx = east.udp_bind(1000);
  auto& near_rx = east2.udp_bind(2000);
  auto& far_rx = west.udp_bind(2000);
  SimTime near_arrival{};
  SimTime far_arrival{};
  near_rx.on_receive([&](const Packet&) { near_arrival = net.now(); });
  far_rx.on_receive([&](const Packet&) { far_arrival = net.now(); });
  tx.send_to(Endpoint{east2.ip(), 2000}, 100);
  tx.send_to(Endpoint{west.ip(), 2000}, 100);
  net.loop().run();
  EXPECT_LT(near_arrival, far_arrival);
  EXPECT_GT(far_arrival.millis(), 15.0);  // cross-country ≫ 15 ms
}

TEST(Network, SameTickPacketsRideOneDeliveryBatch) {
  MetricsRegistry registry;
  auto net = fixed_net(millis(10), {.metrics = &registry});
  Host& a = net->add_host("a", kEast);
  Host& b = net->add_host("b", kWest);
  auto& tx = a.udp_bind(1000);
  auto& rx = b.udp_bind(2000);
  std::vector<std::uint64_t> seqs;
  rx.on_receive([&](const Packet& p) { seqs.push_back(p.seq); });
  for (std::uint64_t i = 0; i < 5; ++i) {
    tx.send_to(Endpoint{b.ip(), 2000}, 100, StreamKind::kVideo, i);
  }
  net->loop().run();
  // Same departure tick + fixed latency = same arrival tick: one event.
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(net->stats().packets_delivered, 5);
  EXPECT_EQ(net->stats().delivery_batches, 1);
  const auto& h = registry.histogram("net.delivery_batch_pkts").stats();
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.mean(), 5.0);
}

TEST(Network, PerLinkQueueDepthGaugeTracksInFlightPackets) {
  MetricsRegistry registry;
  auto net = fixed_net(millis(10), {.metrics = &registry});
  // Every host on an instrumented network is wired — shaper or not.
  Host& a = net->add_host("a", kEast);
  Host& b = net->add_host("b", kWest);
  auto& tx = a.udp_bind(1000);
  b.udp_bind(2000).on_receive([](const Packet&) {});
  ASSERT_TRUE(registry.gauges().contains("net.link.a.in_flight_pkts"));
  ASSERT_TRUE(registry.gauges().contains("net.link.b.in_flight_pkts"));
  const auto& gauge = registry.gauge("net.link.b.in_flight_pkts");
  EXPECT_EQ(gauge.value(), 0.0);
  for (int i = 0; i < 4; ++i) tx.send_to(Endpoint{b.ip(), 2000}, 100);
  EXPECT_EQ(b.in_flight_packets(), 4);
  EXPECT_EQ(gauge.value(), 4.0);
  bool probed = false;
  net->loop().schedule_after(millis(5), [&] {
    probed = true;
    EXPECT_EQ(gauge.value(), 4.0);  // still on the wire halfway to arrival
  });
  net->loop().run();
  EXPECT_TRUE(probed);
  EXPECT_EQ(b.in_flight_packets(), 0);
  EXPECT_EQ(gauge.value(), 0.0);
  // The sender's inbound link saw no traffic; its gauge just reads zero.
  EXPECT_EQ(registry.gauge("net.link.a.in_flight_pkts").value(), 0.0);
}

TEST(Network, DifferentTicksDoNotShareBatches) {
  auto net = fixed_net(millis(10));
  Host& a = net->add_host("a", kEast);
  Host& b = net->add_host("b", kWest);
  auto& tx = a.udp_bind(1000);
  auto& rx = b.udp_bind(2000);
  std::vector<std::uint64_t> seqs;
  rx.on_receive([&](const Packet& p) { seqs.push_back(p.seq); });
  tx.send_to(Endpoint{b.ip(), 2000}, 100, StreamKind::kVideo, 0);
  net->loop().schedule_after(millis(1), [&] {
    tx.send_to(Endpoint{b.ip(), 2000}, 100, StreamKind::kVideo, 1);
  });
  net->loop().run();
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(net->stats().delivery_batches, 2);
}

TEST(Network, SealedBatchNotReusedBySameTickResend) {
  // A receive handler that immediately sends again with zero network delay
  // produces a new arrival at the tick whose batch is currently firing. The
  // sealed batch must not swallow it — it gets an event of its own.
  auto net = fixed_net(millis(0));
  Host& a = net->add_host("a", kEast);
  Host& b = net->add_host("b", kWest);
  auto& tx = a.udp_bind(1000);
  auto& rx = b.udp_bind(2000);
  int hops = 0;
  rx.on_receive([&](const Packet&) {
    if (++hops < 3) tx.send_to(Endpoint{b.ip(), 2000}, 100);
  });
  tx.send_to(Endpoint{b.ip(), 2000}, 100);
  net->loop().run();
  EXPECT_EQ(hops, 3);
  EXPECT_EQ(net->stats().packets_delivered, 3);
  EXPECT_EQ(net->stats().delivery_batches, 3);
}

TEST(Network, BatchingPreservesInterleavedPerDestinationOrder) {
  auto net = fixed_net(millis(10));
  Host& a = net->add_host("a", kEast);
  Host& b = net->add_host("b", kWest);
  Host& c = net->add_host("c", GeoPoint{40.0, -90.0});
  auto& tx = a.udp_bind(1000);
  auto& rx_b = b.udp_bind(2000);
  auto& rx_c = c.udp_bind(2000);
  std::vector<std::uint64_t> b_seqs;
  std::vector<std::uint64_t> c_seqs;
  rx_b.on_receive([&](const Packet& p) { b_seqs.push_back(p.seq); });
  rx_c.on_receive([&](const Packet& p) { c_seqs.push_back(p.seq); });
  for (std::uint64_t i = 0; i < 6; ++i) {
    Host& dst = (i % 2 == 0) ? b : c;
    tx.send_to(Endpoint{dst.ip(), 2000}, 100, StreamKind::kVideo, i);
  }
  net->loop().run();
  EXPECT_EQ(b_seqs, (std::vector<std::uint64_t>{0, 2, 4}));
  EXPECT_EQ(c_seqs, (std::vector<std::uint64_t>{1, 3, 5}));
  EXPECT_EQ(net->stats().delivery_batches, 2);  // one per destination
}

TEST(Network, BindDuplicatePortThrows) {
  auto net = fixed_net();
  Host& a = net->add_host("a", kEast);
  a.udp_bind(1000);
  EXPECT_THROW(a.udp_bind(1000), std::runtime_error);
  a.udp_close(1000);
  EXPECT_NO_THROW(a.udp_bind(1000));
}

TEST(Network, EphemeralPortsUnique) {
  auto net = fixed_net();
  Host& a = net->add_host("a", kEast);
  auto& s1 = a.udp_bind(0);
  auto& s2 = a.udp_bind(0);
  EXPECT_NE(s1.port(), s2.port());
  EXPECT_GE(s1.port(), 32768);
}

}  // namespace
}  // namespace vc::net
