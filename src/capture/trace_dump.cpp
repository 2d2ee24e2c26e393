#include "capture/trace_dump.h"

#include <cstdio>
#include <ostream>
#include <sstream>

namespace vc::capture {

void dump_trace(std::ostream& out, const Trace& trace, const DumpOptions& options) {
  std::size_t printed = 0;
  for (const auto& r : trace.records) {
    if (options.max_records > 0 && printed >= options.max_records) break;
    char line[192];
    std::snprintf(line, sizeof line, "%.6f %s %s > %s %s wire=%lld l7=%lld",
                  r.timestamp.seconds(), r.dir == net::Direction::kOutgoing ? "OUT" : "IN ",
                  r.src.to_string().c_str(), r.dst.to_string().c_str(),
                  r.protocol == net::Protocol::kUdp ? "UDP" : "TCP",
                  static_cast<long long>(r.wire_len), static_cast<long long>(r.l7_len));
    out << line << '\n';
    ++printed;
  }
}

std::string dump_trace_to_string(const Trace& trace, const DumpOptions& options) {
  std::ostringstream out;
  dump_trace(out, trace, options);
  return out.str();
}

std::string summarize_trace(const Trace& trace) {
  std::int64_t in_bytes = 0;
  std::int64_t out_bytes = 0;
  for (const auto& r : trace.records) {
    (r.dir == net::Direction::kIncoming ? in_bytes : out_bytes) += r.l7_len;
  }
  double span = 0.0;
  if (trace.records.size() >= 2) {
    span = (trace.records.back().timestamp - trace.records.front().timestamp).seconds();
  }
  char buf[192];
  std::snprintf(buf, sizeof buf, "%s: %zu records, %.1f s, %.1f KB in / %.1f KB out",
                trace.host_name.c_str(), trace.records.size(), span,
                static_cast<double>(in_bytes) / 1000.0, static_cast<double>(out_bytes) / 1000.0);
  return buf;
}

}  // namespace vc::capture
