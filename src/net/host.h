// A host on the simulated internet: a cloud VM, a relay server, or a phone.
//
// Hosts own UDP sockets, an optional ingress shaper (the tc/ifb analog), and
// packet taps — the attachment point for the tcpdump-like capture in
// src/capture.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/geo.h"
#include "common/metrics.h"
#include "net/packet.h"
#include "net/loss.h"
#include "net/shaper.h"

namespace vc::net {

class Network;
class Host;

/// Traffic direction relative to the host a tap is attached to.
enum class Direction : std::uint8_t { kOutgoing = 0, kIncoming = 1 };

/// Observes packets crossing a host's interface, like tcpdump.
using PacketTap = std::function<void(Direction, const Packet&, SimTime)>;

/// An open delivery batch: all packets bound for one host at one simulated
/// microsecond, riding a single scheduled event (see network.h). The event
/// closure holds shared ownership; `sealed` flips when it fires so handlers
/// running at that tick can't append to a batch already being drained.
struct DeliveryBatch {
  std::vector<Packet> packets;
  bool sealed = false;
};

/// A bound UDP socket. Created via Host::udp_bind; destroyed with the host
/// or via Host::udp_close.
class UdpSocket {
 public:
  using Handler = std::function<void(const Packet&)>;

  UdpSocket(Host& host, std::uint16_t port) : host_(host), port_(port) {}
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  std::uint16_t port() const { return port_; }
  Endpoint local_endpoint() const;

  /// Registers the receive callback; replaces any previous one.
  void on_receive(Handler h) { handler_ = std::move(h); }

  /// Sends a datagram. `pkt.src` is filled in from this socket; `pkt.dst`
  /// must be set by the caller.
  void send(Packet pkt);

  /// Convenience: sends a datagram with just a destination and L7 length.
  void send_to(const Endpoint& dst, std::int64_t l7_len, StreamKind kind = StreamKind::kUnknown,
               std::uint64_t seq = 0);

 private:
  friend class Host;
  Host& host_;
  std::uint16_t port_;
  Handler handler_;
};

class Host {
 public:
  Host(Network& network, std::string name, GeoPoint location, IpAddr ip);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const std::string& name() const { return name_; }
  const GeoPoint& location() const { return location_; }
  IpAddr ip() const { return ip_; }
  Network& network() { return network_; }

  /// Binds a UDP socket on `port` (throws if taken). Port 0 picks an
  /// ephemeral port, as Zoom's P2P mode does.
  UdpSocket& udp_bind(std::uint16_t port = 0);
  void udp_close(std::uint16_t port);
  UdpSocket* udp_socket(std::uint16_t port);

  /// Installs/clears the ingress shaper (tc/ifb analog). Shaped packets are
  /// tapped *after* shaping: analysis sees what the client actually receives.
  /// On an instrumented network the shaper reports under `net.link.<host>`.
  void set_ingress_shaper(std::unique_ptr<TokenBucketShaper> shaper);
  TokenBucketShaper* ingress_shaper() { return ingress_shaper_.get(); }

  /// Last-mile ingress loss (e.g. bursty WiFi); applied before the shaper.
  void set_ingress_loss(std::unique_ptr<LossModel> loss) { ingress_loss_ = std::move(loss); }
  std::int64_t ingress_losses() const { return ingress_losses_; }

  /// Attaches a capture tap; returns an id usable with remove_tap.
  std::uint64_t add_tap(PacketTap tap);
  void remove_tap(std::uint64_t id);

  /// Packets addressed to a port with no socket (counted, then discarded).
  std::int64_t unroutable_packets() const { return unroutable_; }

  /// Packets scheduled toward this host but not yet handed to deliver():
  /// the propagation-pipe queue depth of the host's inbound link. The
  /// ingress shaper's backlog (if any) sits behind this.
  std::int64_t in_flight_packets() const { return in_flight_; }

  // --- used by Network ---
  void notify_sent(const Packet& pkt);
  void deliver(Packet pkt);

 private:
  friend class Network;

  void dispatch(Packet pkt);
  void run_taps(Direction dir, const Packet& pkt);

  void link_enqueued() {
    ++in_flight_;
    if (m_in_flight_pkts_ != nullptr) m_in_flight_pkts_->set(static_cast<double>(in_flight_));
  }
  void link_drained(std::size_t n) {
    in_flight_ -= static_cast<std::int64_t>(n);
    if (m_in_flight_pkts_ != nullptr) m_in_flight_pkts_->set(static_cast<double>(in_flight_));
  }

  // Most recently opened inbound delivery batch, kept inline so Network's
  // send path needs no hash lookup. -1 tick = no batch ever opened.
  std::shared_ptr<DeliveryBatch> open_batch_;
  std::int64_t open_batch_tick_ = -1;

  Network& network_;
  std::string name_;
  GeoPoint location_;
  IpAddr ip_;
  std::unordered_map<std::uint16_t, std::unique_ptr<UdpSocket>> sockets_;
  std::unique_ptr<TokenBucketShaper> ingress_shaper_;
  std::unique_ptr<LossModel> ingress_loss_;
  std::int64_t ingress_losses_ = 0;
  std::vector<std::pair<std::uint64_t, PacketTap>> taps_;
  std::uint64_t next_tap_id_ = 1;
  std::uint16_t next_ephemeral_ = 32768;
  std::int64_t unroutable_ = 0;
  std::int64_t in_flight_ = 0;
  MetricsRegistry::Gauge* m_in_flight_pkts_ = nullptr;
};

}  // namespace vc::net
