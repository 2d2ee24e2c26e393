#include "net/host.h"

#include <stdexcept>
#include <utility>

#include "net/network.h"

namespace vc::net {

Endpoint UdpSocket::local_endpoint() const { return Endpoint{host_.ip(), port_}; }

void UdpSocket::send(Packet pkt) {
  pkt.src = local_endpoint();
  pkt.protocol = Protocol::kUdp;
  host_.network().send(host_, std::move(pkt));
}

void UdpSocket::send_to(const Endpoint& dst, std::int64_t l7_len, StreamKind kind,
                        std::uint64_t seq) {
  Packet pkt;
  pkt.dst = dst;
  pkt.l7_len = l7_len;
  pkt.kind = kind;
  pkt.seq = seq;
  send(std::move(pkt));
}

Host::Host(Network& network, std::string name, GeoPoint location, IpAddr ip)
    : network_(network), name_(std::move(name)), location_(location), ip_(ip) {
  // Every host's inbound link gets a queue-depth gauge; shaper instruments
  // only exist where an ingress cap is installed.
  if (MetricsRegistry* registry = network_.instruments().metrics) {
    m_in_flight_pkts_ = &registry->gauge("net.link." + name_ + ".in_flight_pkts");
  }
}

UdpSocket& Host::udp_bind(std::uint16_t port) {
  if (port == 0) {
    while (sockets_.contains(next_ephemeral_)) ++next_ephemeral_;
    port = next_ephemeral_++;
  }
  auto [it, inserted] = sockets_.emplace(port, std::make_unique<UdpSocket>(*this, port));
  if (!inserted) throw std::runtime_error{name_ + ": UDP port already bound: " + std::to_string(port)};
  return *it->second;
}

void Host::udp_close(std::uint16_t port) { sockets_.erase(port); }

UdpSocket* Host::udp_socket(std::uint16_t port) {
  auto it = sockets_.find(port);
  return it == sockets_.end() ? nullptr : it->second.get();
}

void Host::set_ingress_shaper(std::unique_ptr<TokenBucketShaper> shaper) {
  ingress_shaper_ = std::move(shaper);
  MetricsRegistry* registry = network_.instruments().metrics;
  if (ingress_shaper_ && registry != nullptr) {
    ingress_shaper_->attach_metrics(*registry, "net.link." + name_);
  }
}

std::uint64_t Host::add_tap(PacketTap tap) {
  const std::uint64_t id = next_tap_id_++;
  taps_.emplace_back(id, std::move(tap));
  return id;
}

void Host::remove_tap(std::uint64_t id) {
  std::erase_if(taps_, [id](const auto& p) { return p.first == id; });
}

void Host::run_taps(Direction dir, const Packet& pkt) {
  for (const auto& [id, tap] : taps_) tap(dir, pkt, network_.now());
}

void Host::notify_sent(const Packet& pkt) { run_taps(Direction::kOutgoing, pkt); }

void Host::deliver(Packet pkt) {
  if (ingress_loss_ && ingress_loss_->should_drop(network_.rng())) {
    ++ingress_losses_;
    return;
  }
  if (ingress_shaper_) {
    ingress_shaper_->submit(std::move(pkt), [this](Packet p) { dispatch(std::move(p)); });
    return;
  }
  dispatch(std::move(pkt));
}

void Host::dispatch(Packet pkt) {
  run_taps(Direction::kIncoming, pkt);
  auto it = sockets_.find(pkt.dst.port);
  if (it == sockets_.end() || !it->second->handler_) {
    ++unroutable_;
    return;
  }
  it->second->handler_(pkt);
}

}  // namespace vc::net
