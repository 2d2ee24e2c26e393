// Human-readable trace dumps (the `tcpdump -r` analog for .vctr files): one
// line per record, in capture order, optionally cut after the first N.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "capture/trace.h"

namespace vc::capture {

struct DumpOptions {
  /// Print at most this many records (0 = all).
  std::size_t max_records = 0;
};

/// Writes one line per record: "12.345678 OUT 10.0.0.1:47000 > 10.0.0.4:8801
/// UDP wire=1178 l7=1150".
void dump_trace(std::ostream& out, const Trace& trace, const DumpOptions& options);

/// Convenience: dump to a string (tests, small traces).
std::string dump_trace_to_string(const Trace& trace, const DumpOptions& options);

/// One-line summary: "US-West: 599 records, 30.1 s, 312 KB in / 3 KB out".
std::string summarize_trace(const Trace& trace);

}  // namespace vc::capture
