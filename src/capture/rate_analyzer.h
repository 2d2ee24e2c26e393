// Layer-7 data-rate computation from traces — the paper computes the rates
// of Fig 15 and Fig 19b "directly from pcap traces" as payload bits over
// time, per direction.
#pragma once

#include <optional>

#include "common/units.h"
#include "capture/trace.h"

namespace vc::capture {

struct RateReport {
  DataRate upload{};      // L7 bits/s, outgoing
  DataRate download{};    // L7 bits/s, incoming
  std::int64_t l7_bytes_up = 0;
  std::int64_t l7_bytes_down = 0;
  /// Denominator used for the rates. Normally last-minus-first matching
  /// timestamp; for a degenerate window (all matches share one timestamp)
  /// with both [from, to] bounds given, the queried interval instead.
  SimDuration span{};
  /// Matching records. 0 means nothing matched: bytes, span and rates are
  /// all zero. >0 with span zero means a degenerate window whose rate is
  /// undefined — bytes are still populated; don't divide by span.
  std::int64_t records = 0;
};

class RateAnalyzer {
 public:
  explicit RateAnalyzer(const Trace& trace) : trace_(&trace) {}

  /// Average L7 rate over the full trace (or a sub-interval), optionally
  /// restricted to one remote endpoint.
  RateReport average(std::optional<SimTime> from = std::nullopt,
                     std::optional<SimTime> to = std::nullopt,
                     std::optional<net::Endpoint> remote = std::nullopt) const;

 private:
  const Trace* trace_;
};

}  // namespace vc::capture
