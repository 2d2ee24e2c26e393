#include "capture/rate_analyzer.h"

#include <algorithm>

namespace vc::capture {

RateReport RateAnalyzer::average(std::optional<SimTime> from, std::optional<SimTime> to,
                                 std::optional<net::Endpoint> remote) const {
  RateReport rep;
  SimTime lo = SimTime::infinity();
  SimTime hi = SimTime::zero();
  for (const auto& r : trace_->records) {
    if (from && r.timestamp < *from) continue;
    if (to && r.timestamp > *to) continue;
    if (remote && r.remote() != *remote) continue;
    lo = std::min(lo, r.timestamp);
    hi = std::max(hi, r.timestamp);
    ++rep.records;
    if (r.dir == net::Direction::kIncoming) {
      rep.l7_bytes_down += r.l7_len;
    } else {
      rep.l7_bytes_up += r.l7_len;
    }
  }
  // No match: lo/hi still hold their sentinels — discard them and report an
  // all-zero window rather than a nonsense span.
  if (rep.records == 0) return rep;
  SimDuration span = hi - lo;
  if (span <= SimDuration::zero()) {
    // Degenerate window: one record, or every match at the same timestamp.
    // With explicit bounds the queried interval is the honest denominator;
    // without them there is no defensible span, so rates stay zero (callers
    // can detect this via records > 0 && span == 0).
    if (from && to && *to > *from) {
      span = *to - *from;
    } else {
      return rep;
    }
  }
  rep.span = span;
  const double sec = rep.span.seconds();
  rep.upload = DataRate::bps(static_cast<std::int64_t>(static_cast<double>(rep.l7_bytes_up) * 8.0 / sec));
  rep.download =
      DataRate::bps(static_cast<std::int64_t>(static_cast<double>(rep.l7_bytes_down) * 8.0 / sec));
  return rep;
}

}  // namespace vc::capture
