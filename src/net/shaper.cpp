#include "net/shaper.h"

#include <algorithm>
#include <utility>

namespace vc::net {

TokenBucketShaper::TokenBucketShaper(EventLoop& loop, DataRate rate, std::int64_t burst_bytes,
                                     std::size_t queue_limit_packets)
    : loop_(loop),
      rate_(rate),
      bucket_bytes_(static_cast<double>(burst_bytes)),
      burst_bytes_(burst_bytes),
      queue_limit_packets_(queue_limit_packets),
      last_refill_(loop.now()),
      tracer_(loop.tracer()) {}

TokenBucketShaper::~TokenBucketShaper() {
  // A scheduled drain would dangle once we're gone.
  if (drain_scheduled_) loop_.cancel(drain_event_);
}

void TokenBucketShaper::attach_metrics(MetricsRegistry& registry, const std::string& prefix) {
  m_forwarded_packets_ = &registry.counter(prefix + ".forwarded_packets");
  m_forwarded_bytes_ = &registry.counter(prefix + ".forwarded_bytes");
  m_dropped_packets_ = &registry.counter(prefix + ".dropped_packets");
  m_dropped_bytes_ = &registry.counter(prefix + ".dropped_bytes");
  m_queue_delay_ms_ = &registry.histogram(prefix + ".queue_delay_ms");
  m_backlog_pkts_ = &registry.gauge(prefix + ".backlog_pkts");
  m_backlog_pkts_->set(static_cast<double>(queue_.size()));
}

void TokenBucketShaper::set_rate(DataRate rate) {
  refill();  // settle tokens at the old rate first
  rate_ = rate;
  // Re-plan any pending drain: its wakeup was computed at the old rate.
  if (drain_scheduled_) {
    loop_.cancel(drain_event_);
    drain_scheduled_ = false;
  }
  if (!queue_.empty()) schedule_drain();
}

void TokenBucketShaper::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (down_) {
    // Freeze the link: nothing drains until it comes back up. Tokens banked
    // before the outage are forfeited too — otherwise recovery starts with a
    // full pre-outage bucket on top of the restarted refill clock and the
    // first post-recovery burst can exceed the configured burst size.
    bucket_bytes_ = 0.0;
    if (drain_scheduled_) {
      loop_.cancel(drain_event_);
      drain_scheduled_ = false;
    }
    return;
  }
  // Back up. Tokens must not have accrued over the outage — a dead link
  // earns no transmission credit — so restart the refill clock at now.
  last_refill_ = loop_.now();
  if (!queue_.empty()) schedule_drain();
}

void TokenBucketShaper::refill() {
  const SimDuration elapsed = loop_.now() - last_refill_;
  last_refill_ = loop_.now();
  if (rate_.is_unlimited()) {
    bucket_bytes_ = bucket_cap();
    return;
  }
  bucket_bytes_ += static_cast<double>(rate_.bits_per_second()) / 8.0 * elapsed.seconds();
  bucket_bytes_ = std::min(bucket_bytes_, bucket_cap());
}

void TokenBucketShaper::submit(Packet pkt, std::function<void(Packet)> deliver) {
  const std::int64_t size = pkt.wire_len();
  max_packet_bytes_ = std::max(max_packet_bytes_, size);
  if (down_) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += size;
    if (m_dropped_packets_) {
      m_dropped_packets_->inc();
      m_dropped_bytes_->add(size);
    }
    if (tracer_ != nullptr) tracer_->instant("shaper.drop", loop_.now(), static_cast<double>(size));
    return;
  }
  refill();
  if (queue_.empty() && (rate_.is_unlimited() || bucket_bytes_ >= static_cast<double>(size))) {
    bucket_bytes_ -= static_cast<double>(size);
    ++stats_.forwarded_packets;
    stats_.forwarded_bytes += size;
    if (m_forwarded_packets_) {
      m_forwarded_packets_->inc();
      m_forwarded_bytes_->add(size);
      m_queue_delay_ms_->observe(0.0);
    }
    deliver(std::move(pkt));
    return;
  }
  if (queue_.size() >= queue_limit_packets_) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += size;
    if (m_dropped_packets_) {
      m_dropped_packets_->inc();
      m_dropped_bytes_->add(size);
    }
    if (tracer_ != nullptr) tracer_->instant("shaper.drop", loop_.now(), static_cast<double>(size));
    return;
  }
  queued_bytes_ += size;
  queue_.push_back(Queued{std::move(pkt), std::move(deliver), loop_.now()});
  if (m_backlog_pkts_) m_backlog_pkts_->set(static_cast<double>(queue_.size()));
  if (tracer_ != nullptr) {
    tracer_->counter("shaper.backlog_pkts", loop_.now(), static_cast<double>(queue_.size()));
  }
  schedule_drain();
}

void TokenBucketShaper::schedule_drain() {
  if (drain_scheduled_ || queue_.empty() || down_) return;
  refill();
  const std::int64_t head = queue_.front().pkt.wire_len();
  SimDuration wait = SimDuration::zero();
  if (!rate_.is_unlimited() && bucket_bytes_ < static_cast<double>(head)) {
    const double deficit = static_cast<double>(head) - bucket_bytes_;
    const double sec = deficit * 8.0 / static_cast<double>(rate_.bits_per_second());
    wait = seconds_f(sec) + micros(1);
  }
  drain_scheduled_ = true;
  drain_event_ = loop_.schedule_after(wait, [this] {
    drain_scheduled_ = false;
    drain();
  });
}

void TokenBucketShaper::drain() {
  refill();
  while (!queue_.empty()) {
    const std::int64_t size = queue_.front().pkt.wire_len();
    if (!rate_.is_unlimited() && bucket_bytes_ < static_cast<double>(size)) break;
    Queued q = std::move(queue_.front());
    queue_.pop_front();
    queued_bytes_ -= size;
    bucket_bytes_ -= static_cast<double>(size);
    ++stats_.forwarded_packets;
    stats_.forwarded_bytes += size;
    stats_.max_queue_delay = std::max(stats_.max_queue_delay, loop_.now() - q.enqueued_at);
    if (m_forwarded_packets_) {
      m_forwarded_packets_->inc();
      m_forwarded_bytes_->add(size);
      m_queue_delay_ms_->observe((loop_.now() - q.enqueued_at).millis());
    }
    if (tracer_ != nullptr) {
      tracer_->span("shaper.queue", q.enqueued_at, loop_.now(), static_cast<double>(size));
    }
    q.deliver(std::move(q.pkt));
  }
  if (m_backlog_pkts_) m_backlog_pkts_->set(static_cast<double>(queue_.size()));
  if (tracer_ != nullptr) {
    tracer_->counter("shaper.backlog_pkts", loop_.now(), static_cast<double>(queue_.size()));
  }
  if (!queue_.empty()) schedule_drain();
}

}  // namespace vc::net
