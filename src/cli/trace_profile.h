// Trace analytics (the `vcbench_cli profile` subcommand).
//
// Aggregates one or more Chrome trace-event files (as written by
// vc::Tracer::to_chrome_json(), typically a runner trace_dir's
// <task>.trace.json set) into:
//
//  - a per-span-name profile: count, total time, and self time (total minus
//    time covered by nested spans), ranked by self time;
//  - a per-(name, ph) record table: the count of every span, instant and
//    counter record; for spans the mean/min/max duration; and the mean
//    args.value where records carry one;
//  - busy chains through the event loop: maximal runs of consecutive
//    `loop.exec` records whose args.value (queue depth after dequeue) stays
//    above zero. A chain is an unbroken stretch where the loop never drained
//    — the sim-time critical path through that burst of work.
//
// Pure text-in/text-out like the other renderers. The inputs' recorded and
// dropped totals (otherData) print under the header; a ring-wrapped input
// (dropped_records > 0) also renders with a prominent WARNING since the
// missing records silently deflate every aggregate.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cli/cli_render.h"

namespace vc::cli {

struct ProfileOptions {
  /// Rows in the hot-span table (ranked by self time).
  std::size_t top = 15;
  /// Busy chains reported (ranked by sim-time extent).
  std::size_t chains = 3;
  /// Case-insensitive substring filter on record names (both tables; chains
  /// always see every loop.exec record).
  std::string filter;
};

struct TraceInput {
  std::string label;      // names the file in output/messages
  std::string json_text;  // the trace file's contents
};

RenderResult render_profile(const std::vector<TraceInput>& traces, const ProfileOptions& options);

}  // namespace vc::cli
