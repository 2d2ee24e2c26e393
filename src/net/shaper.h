// Token-bucket traffic shaper — the simulator's analog of the paper's
// tc/ifb ingress rate limiting (Section 4.4). Packets exceeding the rate are
// queued up to a packet limit (like tc's pfifo, whose limit is in packets —
// which matters: audio packets get no small-size advantage at a congested
// queue), then tail-dropped; that is what starves the video decoder and
// produces the QoE cliffs of Figs 17–18.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>

#include <string>

#include "common/metrics.h"
#include "common/tracer.h"
#include "common/units.h"
#include "net/event_loop.h"
#include "net/packet.h"

namespace vc::net {

class TokenBucketShaper {
 public:
  struct Stats {
    std::int64_t forwarded_packets = 0;
    std::int64_t forwarded_bytes = 0;
    std::int64_t dropped_packets = 0;
    std::int64_t dropped_bytes = 0;
    SimDuration max_queue_delay{};
  };

  /// `rate`: drain rate; `burst_bytes`: bucket depth; `queue_limit_packets`:
  /// backlog beyond which packets are tail-dropped (tc pfifo semantics).
  /// Records into the loop's tracer, if it has one: backlog state changes
  /// become a `shaper.backlog_pkts` counter track, tail drops a
  /// `shaper.drop` instant, and each queued-then-forwarded packet a
  /// `shaper.queue` span from enqueue to drain (value = wire bytes).
  TokenBucketShaper(EventLoop& loop, DataRate rate, std::int64_t burst_bytes = 16'000,
                    std::size_t queue_limit_packets = 100);
  ~TokenBucketShaper();
  TokenBucketShaper(const TokenBucketShaper&) = delete;
  TokenBucketShaper& operator=(const TokenBucketShaper&) = delete;

  /// Submits a packet; `deliver` runs when (and if) the packet clears the
  /// shaper. Delivery order is FIFO.
  void submit(Packet pkt, std::function<void(Packet)> deliver);

  void set_rate(DataRate rate);
  DataRate rate() const { return rate_; }

  /// Outage switch: while down, every submitted packet is dropped (counted
  /// in the drop stats, like a tail drop) and the backlog keeps waiting for
  /// tokens that only flow again after `set_down(false)`. One branch on the
  /// fast path when up — the fault subsystem's "link dead" primitive.
  void set_down(bool down);
  bool is_down() const { return down_; }

  const Stats& stats() const { return stats_; }

  /// Mirrors forward/drop accounting into `<prefix>.forwarded_packets`,
  /// `<prefix>.forwarded_bytes`, `<prefix>.dropped_packets` and
  /// `<prefix>.dropped_bytes` counters plus a `<prefix>.queue_delay_ms`
  /// histogram, and a `<prefix>.backlog_pkts` queue-depth gauge. Called by
  /// the shaper's owner once it knows the name: Host on install, a trunk,
  /// or a scenario's private registry. The registry must outlive the shaper.
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

  std::size_t backlog_packets() const { return queue_.size(); }
  std::int64_t backlog_bytes() const { return queued_bytes_; }

 private:
  struct Queued {
    Packet pkt;
    std::function<void(Packet)> deliver;
    SimTime enqueued_at;
  };

  void refill();
  void drain();
  void schedule_drain();
  /// Effective bucket depth: at least one max-size packet must fit, or a
  /// packet larger than the burst could never be served (tc requires
  /// burst >= MTU for the same reason).
  double bucket_cap() const {
    return static_cast<double>(std::max(burst_bytes_, max_packet_bytes_));
  }

  EventLoop& loop_;
  DataRate rate_;
  double bucket_bytes_;          // current tokens, in bytes
  std::int64_t burst_bytes_;
  std::int64_t max_packet_bytes_ = 0;
  std::size_t queue_limit_packets_;
  std::int64_t queued_bytes_ = 0;
  SimTime last_refill_;
  std::deque<Queued> queue_;
  bool down_ = false;
  bool drain_scheduled_ = false;
  EventId drain_event_ = 0;
  Stats stats_;
  // Optional metrics hooks (resolved once; see MetricsRegistry reference
  // stability guarantee).
  MetricsRegistry::Counter* m_forwarded_packets_ = nullptr;
  MetricsRegistry::Counter* m_forwarded_bytes_ = nullptr;
  MetricsRegistry::Counter* m_dropped_packets_ = nullptr;
  MetricsRegistry::Counter* m_dropped_bytes_ = nullptr;
  MetricsRegistry::Histogram* m_queue_delay_ms_ = nullptr;
  MetricsRegistry::Gauge* m_backlog_pkts_ = nullptr;
  Tracer* tracer_ = nullptr;
};

}  // namespace vc::net
