#include "client/rtt_prober.h"

#include <numeric>

namespace vc::client {

RttProber::RttProber(net::Host& host)
    : host_(host), tracer_(host.network().instruments().tracer) {
  if (MetricsRegistry* registry = host.network().instruments().metrics) {
    m_sent_ = &registry->counter("rtt.probe.sent");
    m_answered_ = &registry->counter("rtt.probe.answered");
    m_rtt_ms_ = &registry->histogram("rtt.probe.rtt_ms");
  }
  socket_ = &host_.udp_bind(0);  // ephemeral probing port
  socket_->on_receive([this](const net::Packet& pkt) {
    if (pkt.kind != net::StreamKind::kProbeReply) return;
    auto it = outstanding_.find(pkt.seq);
    if (it == outstanding_.end()) return;
    const double rtt_ms = (host_.network().now() - it->second).millis();
    rtts_ms_.push_back(rtt_ms);
    if (m_answered_ != nullptr) {
      m_answered_->inc();
      m_rtt_ms_->observe(rtt_ms);
    }
    if (tracer_ != nullptr) tracer_->span("rtt.probe", it->second, host_.network().now(), rtt_ms);
    outstanding_.erase(it);
  });
}

RttProber::~RttProber() { host_.udp_close(socket_->port()); }

void RttProber::start(net::Endpoint target, SimDuration interval, int count) {
  target_ = target;
  interval_ = interval;
  remaining_ = count;
  running_ = true;
  tick();
}

void RttProber::stop() { running_ = false; }

void RttProber::tick() {
  if (!running_ || remaining_ <= 0) {
    running_ = false;
    return;
  }
  const std::uint64_t seq = next_seq_++;
  outstanding_[seq] = host_.network().now();
  net::Packet probe;
  probe.dst = target_;
  probe.l7_len = 64;
  probe.kind = net::StreamKind::kProbe;
  probe.seq = seq;
  socket_->send(std::move(probe));
  ++sent_;
  if (m_sent_ != nullptr) m_sent_->inc();
  --remaining_;
  host_.network().loop().schedule_after(interval_, [this] { tick(); });
}

double RttProber::average_ms() const {
  if (rtts_ms_.empty()) return 0.0;
  return std::accumulate(rtts_ms_.begin(), rtts_ms_.end(), 0.0) /
         static_cast<double>(rtts_ms_.size());
}

}  // namespace vc::client
