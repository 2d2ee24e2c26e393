#include "net/network.h"

#include <utility>

#include "common/log.h"

namespace vc::net {

Network::Network(std::unique_ptr<LatencyModel> latency, std::uint64_t seed,
                 Instruments instruments)
    : instruments_(instruments),
      loop_(instruments),
      latency_(std::move(latency)),
      rng_(seed) {
  if (!latency_) throw std::invalid_argument{"network needs a latency model"};
  if (MetricsRegistry* registry = instruments.metrics) {
    m_batch_pkts_ = &registry->histogram("net.delivery_batch_pkts");
    m_link_sent_ = &registry->counter("net.link.packets_sent");
    m_link_delivered_ = &registry->counter("net.link.packets_delivered");
    m_link_lost_ = &registry->counter("net.link.packets_lost");
    m_link_unroutable_ = &registry->counter("net.link.packets_unroutable");
  }
}

Host& Network::add_host(std::string name, GeoPoint location) {
  const IpAddr ip{next_ip_++};
  auto host = std::make_unique<Host>(*this, std::move(name), location, ip);
  Host& ref = *host;
  by_ip_.push_back(host.get());  // index = ip − kFirstIp by construction
  hosts_.push_back(std::move(host));
  return ref;
}

Host* Network::host(IpAddr ip) {
  const std::uint32_t index = ip.value() - kFirstIp;  // wraps below kFirstIp
  return index < by_ip_.size() ? by_ip_[index] : nullptr;
}

void Network::send(Host& from, Packet pkt) {
  pkt.sent_at = now();
  ++stats_.packets_sent;
  stats_.bytes_sent += pkt.wire_len();
  if (m_link_sent_ != nullptr) m_link_sent_->inc();
  if (instruments_.tracer != nullptr) {
    instruments_.tracer->instant("net.link.send", now(), static_cast<double>(pkt.wire_len()));
  }
  from.notify_sent(pkt);

  Host* dst = host(pkt.dst.ip);
  if (dst == nullptr) {
    ++stats_.packets_unroutable;
    if (m_link_unroutable_ != nullptr) m_link_unroutable_->inc();
    VC_LOG(kDebug) << from.name() << ": no route to " << pkt.dst.to_string();
    return;
  }
  if (loss_ && loss_->should_drop(rng_)) {
    ++stats_.packets_lost;
    if (m_link_lost_ != nullptr) m_link_lost_->inc();
    if (instruments_.tracer != nullptr) {
      instruments_.tracer->instant("net.link.drop", now(), static_cast<double>(pkt.wire_len()));
    }
    return;
  }
  const SimDuration delay = latency_->one_way(from.location(), dst->location(), rng_);
  const SimTime arrival = now() + delay;

  // Coalesce onto the destination's open delivery batch when the arrival
  // tick matches; otherwise schedule a fresh batch event. Only the most
  // recently opened batch per destination is joinable — if jitter interleaves
  // ticks, an older same-tick batch just fires separately, earlier in FIFO
  // order, so per-destination arrival order still equals send order (exactly
  // what per-packet scheduling produced). Keeping the one open batch inline
  // in Host makes the common case a pointer compare, no hash lookup.
  const std::int64_t tick = arrival.micros();
  dst->link_enqueued();
  if (dst->open_batch_tick_ == tick && !dst->open_batch_->sealed) {
    dst->open_batch_->packets.push_back(std::move(pkt));
    return;
  }
  auto batch = std::make_shared<DeliveryBatch>();
  batch->packets.push_back(std::move(pkt));
  dst->open_batch_ = batch;
  dst->open_batch_tick_ = tick;
  loop_.schedule_at(arrival, [this, dst, batch] {
    batch->sealed = true;  // handlers running now may send more to this tick
    if (dst->open_batch_ == batch) {
      dst->open_batch_.reset();
      dst->open_batch_tick_ = -1;
    }
    deliver_batch(*dst, *batch);
  });
}

void Network::deliver_batch(Host& dst, DeliveryBatch& batch) {
  ++stats_.delivery_batches;
  dst.link_drained(batch.packets.size());
  if (m_batch_pkts_ != nullptr) {
    m_batch_pkts_->observe(static_cast<double>(batch.packets.size()));
  }
  if (m_link_delivered_ != nullptr) {
    m_link_delivered_->add(static_cast<std::int64_t>(batch.packets.size()));
  }
  if (instruments_.tracer != nullptr) {
    // One span per batch: from the first packet's send time to arrival — the
    // propagation (plus coalescing) window of this link hop.
    instruments_.tracer->span("net.link.deliver", batch.packets.front().sent_at, now(),
                  static_cast<double>(batch.packets.size()));
  }
  for (Packet& p : batch.packets) {
    ++stats_.packets_delivered;
    dst.deliver(std::move(p));
  }
}

}  // namespace vc::net
