// A cascaded-relay trunk: the directed inter-relay link of a federated
// deployment.
//
// The paper's measured platforms each terminate a meeting on one relay (or,
// for Meet, a handful of front-ends meshed per meeting). A federation goes
// further: relays are peered by long-lived TRUNKS that aggregate every
// co-homed meeting's media onto one provisioned link, the way real SFU
// cascades ride leased backbone capacity between datacenters. A trunk
// therefore models exactly two things a per-meeting peer socket does not:
//   * capacity — a TokenBucketShaper bounds the aggregate rate, so a hot
//     fleet sees trunk queueing delay and tail drops like a saturated
//     backbone link;
//   * propagation — a fixed site-to-site delay derived from great-circle
//     distance, shared by every meeting on the link.
//
// Determinism: a trunk lives entirely on the event loop (shaper drain events
// + one delivery event per packet) and draws no randomness, so the trunked
// path is byte-identical at every thread and shard count. Packets enter at
// the origin relay's departure tick (RelayServer::set_trunk_egress fires
// after the departure batch is sealed, on the loop thread) and leave into
// RelayServer::ingest_trunk, which demuxes by the packet's meeting tag.
#pragma once

#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "common/tracer.h"
#include "net/shaper.h"
#include "platform/relay.h"

namespace vc::fleet {

class Trunk {
 public:
  struct Config {
    /// Aggregate capacity of the link (all meetings share it).
    DataRate rate = DataRate::mbps(500);
    std::int64_t burst_bytes = 64'000;
    std::size_t queue_limit_packets = 4096;
    /// One-way propagation delay between the two relay sites.
    SimDuration propagation = millis(1);
  };

  struct Stats {
    std::int64_t delivered_packets = 0;
    std::int64_t delivered_bytes = 0;
  };

  /// Registers itself as `from`'s egress toward `to` (and deregisters in the
  /// destructor). Both relays are borrowed and must outlive the trunk.
  ///
  /// On an instrumented network and given a `metrics_prefix`, reports shaper
  /// forward/drop accounting under `<metrics_prefix>.forwarded_packets` etc.
  /// plus a `<metrics_prefix>.delivered_packets` counter (packets that
  /// cleared both the shaper and propagation into the far relay) — part of
  /// the determinism contract, like relay metrics. On a traced network,
  /// records per-packet `fleet.trunk` spans (shaper-exit → far-relay ingest,
  /// value = wire bytes) plus the shaper's own backlog/queue records.
  Trunk(net::Network& network, platform::RelayServer& from, platform::RelayServer& to,
        Config config, const std::string& metrics_prefix = {});
  ~Trunk();
  Trunk(const Trunk&) = delete;
  Trunk& operator=(const Trunk&) = delete;

  /// Counter credited with every submitted packet's wire bytes (borrowed;
  /// the fleet points this at the origin slot's `.trunk_bytes` counter).
  void set_origin_bytes_counter(MetricsRegistry::Counter* counter) {
    origin_bytes_ = counter;
  }

  const Stats& stats() const { return stats_; }
  const net::TokenBucketShaper::Stats& shaper_stats() const { return shaper_.stats(); }

 private:
  void send(net::Packet pkt);

  net::Network& network_;
  platform::RelayServer& from_;
  platform::RelayServer& to_;
  Config config_;
  net::TokenBucketShaper shaper_;
  Stats stats_;
  MetricsRegistry::Counter* origin_bytes_ = nullptr;
  MetricsRegistry::Counter* m_delivered_ = nullptr;
  Tracer* tracer_ = nullptr;
};

}  // namespace vc::fleet
