#include "fleet/trunk.h"

namespace vc::fleet {

Trunk::Trunk(net::Network& network, platform::RelayServer& from, platform::RelayServer& to,
             Config config, const std::string& metrics_prefix)
    : network_(network),
      from_(from),
      to_(to),
      config_(config),
      shaper_(network.loop(), config.rate, config.burst_bytes, config.queue_limit_packets),
      tracer_(network.instruments().tracer) {
  MetricsRegistry* registry = network.instruments().metrics;
  if (registry != nullptr && !metrics_prefix.empty()) {
    shaper_.attach_metrics(*registry, metrics_prefix);
    m_delivered_ = &registry->counter(metrics_prefix + ".delivered_packets");
  }
  from_.set_trunk_egress(to_.endpoint(), [this](net::Packet pkt) { send(std::move(pkt)); });
}

Trunk::~Trunk() { from_.set_trunk_egress(to_.endpoint(), nullptr); }

void Trunk::send(net::Packet pkt) {
  // The trunk is the link between the two relay processes, so the copy's
  // source becomes the origin relay's media endpoint — what the far side
  // would see on the wire. (Demux at ingest is by pkt.meeting, not src: one
  // trunk aggregates many meetings.)
  pkt.src = from_.endpoint();
  if (origin_bytes_ != nullptr) origin_bytes_->add(pkt.wire_len());
  shaper_.submit(std::move(pkt), [this](net::Packet cleared) {
    const SimTime exit = network_.loop().now();
    const SimTime arrival = exit + config_.propagation;
    if (tracer_ != nullptr) {
      tracer_->span("fleet.trunk", exit, arrival, static_cast<double>(cleared.wire_len()));
    }
    network_.loop().schedule_at(arrival, [this, p = std::move(cleared)]() mutable {
      ++stats_.delivered_packets;
      stats_.delivered_bytes += p.wire_len();
      if (m_delivered_ != nullptr) m_delivered_->inc();
      to_.ingest_trunk(p);
    });
  });
}

}  // namespace vc::fleet
