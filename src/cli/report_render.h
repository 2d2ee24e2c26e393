// Run-report rendering (the `vcbench_cli report` subcommand).
//
// Renders tables / metric listings / ASCII CDFs from a saved run report, as
// written by runner::RunReport::to_json() or aggregate_json(). Tolerant of
// report vintage: every section beyond the label header is optional, so
// reports written before a section existed (samples-only PR 4 reports up
// through pre-timeline PR 8 reports) render whatever they have and exit 0.
// Only an unreadable input — malformed JSON, or a root that is not an
// object — exits 2.
#pragma once

#include <string>

#include "cli/cli_render.h"

namespace vc::cli {

struct ReportOptions {
  /// Case-insensitive substring filter on metric names.
  std::string filter;
  /// true: list bare metric keys (one per line) instead of tables.
  bool list = false;
  /// When not empty, render an ASCII CDF from quantile samples
  /// `<cdf_base>.p10` .. `.p90` instead of the tables.
  std::string cdf_base;
};

/// `label` names the input in headers/messages (normally the file path);
/// `json_text` is the report file's contents.
RenderResult render_report(const std::string& label, const std::string& json_text,
                           const ReportOptions& options);

}  // namespace vc::cli
