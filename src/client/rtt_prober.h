// Active RTT probing of discovered service endpoints — the tcpping analog
// (ICMP is blocked by the real infrastructures, so the paper probes the
// media endpoint itself; our relays likewise answer only in-band probes).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/time.h"
#include "common/tracer.h"
#include "net/network.h"

namespace vc::client {

class RttProber {
 public:
  /// On an instrumented network, mirrors probing into `rtt.probe.sent` /
  /// `rtt.probe.answered` counters and an `rtt.probe.rtt_ms` histogram; on a
  /// traced one, each answered probe becomes an `rtt.probe` span from send
  /// to reply (value = RTT in ms).
  explicit RttProber(net::Host& host);
  ~RttProber();
  RttProber(const RttProber&) = delete;
  RttProber& operator=(const RttProber&) = delete;

  /// Sends `count` probes to `target`, one every `interval`.
  void start(net::Endpoint target, SimDuration interval, int count);
  void stop();

  const std::vector<double>& rtts_ms() const { return rtts_ms_; }
  double average_ms() const;
  int sent() const { return sent_; }
  bool done() const { return !running_; }

 private:
  void tick();

  net::Host& host_;
  net::UdpSocket* socket_;
  net::Endpoint target_;
  SimDuration interval_{};
  int remaining_ = 0;
  int sent_ = 0;
  bool running_ = false;
  std::uint64_t next_seq_ = 1;
  std::unordered_map<std::uint64_t, SimTime> outstanding_;
  std::vector<double> rtts_ms_;
  MetricsRegistry::Counter* m_sent_ = nullptr;
  MetricsRegistry::Counter* m_answered_ = nullptr;
  MetricsRegistry::Histogram* m_rtt_ms_ = nullptr;
  Tracer* tracer_ = nullptr;
};

}  // namespace vc::client
