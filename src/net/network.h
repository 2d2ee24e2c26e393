// The simulated internet: hosts + a latency model + loss.
//
// There are no modeled core-link bandwidth constraints — the paper's cloud
// VMs have multi-Gbps connectivity, so the bottlenecks that matter are the
// artificial ingress caps (Section 4.4), modeled per-host by shapers.
//
// Delivery is batched: all packets bound for the same host at the same
// simulated microsecond ride one scheduled event carrying a vector of
// packets, instead of one event (and one closure) per packet. Arrival times
// and per-destination arrival order are exactly what per-packet scheduling
// produced; only the number of heap operations changes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/instruments.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "net/event_loop.h"
#include "net/host.h"
#include "net/latency.h"
#include "net/loss.h"
#include "net/packet.h"

namespace vc::net {

class Network {
 public:
  struct Stats {
    std::int64_t packets_sent = 0;
    std::int64_t packets_delivered = 0;
    std::int64_t packets_lost = 0;
    std::int64_t packets_unroutable = 0;
    std::int64_t bytes_sent = 0;
    /// Scheduled delivery events; packets_delivered / delivery_batches is the
    /// measured coalescing factor.
    std::int64_t delivery_batches = 0;
  };

  /// `instruments` are the world's observability sinks: the network and
  /// everything built on it report into them (see common/instruments.h).
  /// With `instruments.metrics`, the loop reports under `net.loop.*`, a
  /// `net.delivery_batch_pkts` histogram records packets carried per
  /// scheduled delivery event, traffic is counted under `net.link.*`
  /// (packets_sent/delivered/lost/unroutable), every host gets a per-link
  /// `net.link.<host>.in_flight_pkts` queue-depth gauge (packets scheduled
  /// toward it but not yet delivered), and an installed ingress shaper
  /// reports under the same per-link prefix (forward/drop counters and a
  /// backlog_pkts queue-depth gauge). With `instruments.tracer`, sends become
  /// `net.link.send` instants (value = wire bytes), losses `net.link.drop`
  /// instants, and each delivery batch a `net.link.deliver` span from the
  /// first packet's send time to arrival (value = batch size).
  Network(std::unique_ptr<LatencyModel> latency, std::uint64_t seed,
          Instruments instruments = {});

  const Instruments& instruments() const { return instruments_; }

  EventLoop& loop() { return loop_; }
  const EventLoop& loop() const { return loop_; }
  SimTime now() const { return loop_.now(); }
  const LatencyModel& latency() const { return *latency_; }
  Rng& rng() { return rng_; }

  /// Creates a host with an auto-assigned 10.x.x.x address.
  Host& add_host(std::string name, GeoPoint location);
  Host* host(IpAddr ip);
  const std::vector<std::unique_ptr<Host>>& hosts() const { return hosts_; }

  /// Core loss model (none by default: the paper's cloud paths are clean;
  /// loss experiments install one, e.g. Bernoulli or Gilbert–Elliott bursts).
  void set_loss_model(std::unique_ptr<LossModel> model) { loss_ = std::move(model); }

  /// Injects a packet from `from` into the network. Called by UdpSocket.
  void send(Host& from, Packet pkt);

  const Stats& stats() const { return stats_; }

 private:
  void deliver_batch(Host& dst, DeliveryBatch& batch);

  Instruments instruments_;
  EventLoop loop_;
  std::unique_ptr<LatencyModel> latency_;
  Rng rng_;
  std::unique_ptr<LossModel> loss_;
  std::vector<std::unique_ptr<Host>> hosts_;
  /// Hosts get sequential 10.x addresses, so routing is a bounds check plus
  /// a direct index instead of a hash probe — Network::send runs once per
  /// simulated packet, and on relay fan-out sweeps the old unordered_map
  /// lookup was a measurable slice of the per-copy cost.
  std::vector<Host*> by_ip_;
  static constexpr std::uint32_t kFirstIp = 0x0A000001;  // 10.0.0.1
  std::uint32_t next_ip_ = kFirstIp;
  Stats stats_;
  MetricsRegistry::Histogram* m_batch_pkts_ = nullptr;
  MetricsRegistry::Counter* m_link_sent_ = nullptr;
  MetricsRegistry::Counter* m_link_delivered_ = nullptr;
  MetricsRegistry::Counter* m_link_lost_ = nullptr;
  MetricsRegistry::Counter* m_link_unroutable_ = nullptr;
};

}  // namespace vc::net
