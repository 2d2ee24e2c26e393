#include "cli/report_render.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/table.h"

namespace vc::cli {
namespace {

long long int_field(const json::Value& obj, const char* key, long long fallback = 0) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? static_cast<long long>(v->number_value) : fallback;
}

/// Renders one {name: {count,mean,stddev,min,max,sum}} stats section.
void render_stats_section(std::string& out, const char* title, const json::Value& section,
                          const std::string& filter) {
  if (!section.is_object() || section.object_items.empty()) return;
  TextTable table{{"name", "count", "mean", "stddev", "min", "max", "sum"}};
  std::size_t rows = 0;
  for (const auto& [name, stats] : section.object_items) {
    if (!name_matches(name, filter) || !stats.is_object()) continue;
    auto field = [&stats](const char* key) {
      const json::Value* v = stats.find(key);
      return v != nullptr && v->is_number() ? TextTable::num(v->number_value, 4) : std::string("-");
    };
    const json::Value* count = stats.find("count");
    table.add_row({name,
                   count != nullptr && count->is_number()
                       ? std::to_string(static_cast<long long>(count->number_value))
                       : "-",
                   field("mean"), field("stddev"), field("min"), field("max"), field("sum")});
    ++rows;
  }
  if (rows == 0) return;
  out += title;
  out += "\n";
  out += table.render();
}

/// ASCII CDF from quantile samples named <base>.p10 / .p25 / .p50 / .p75 /
/// .p90 (the shape runner-converted benches record per distribution).
void render_cdf(std::string& out, const json::Value& samples, const std::string& base) {
  constexpr int kQuantiles[] = {10, 25, 50, 75, 90};
  std::vector<std::pair<int, double>> points;
  for (int q : kQuantiles) {
    const json::Value* s = samples.find(base + ".p" + std::to_string(q));
    if (s == nullptr || !s->is_object()) continue;
    const json::Value* mean = s->find("mean");
    if (mean != nullptr && mean->is_number()) points.emplace_back(q, mean->number_value);
  }
  if (points.empty()) {
    out += "no quantile samples " + base + ".p10..p90 in report\n";
    return;
  }
  double max_v = 0.0;
  for (const auto& [q, v] : points) max_v = std::max(max_v, v);
  out += base + " CDF\n";
  constexpr int kWidth = 48;
  for (const auto& [q, v] : points) {
    const int bar = max_v > 0.0 ? static_cast<int>(v / max_v * kWidth + 0.5) : 0;
    std::string line = "  p" + std::to_string(q);
    while (line.size() < 6) line += ' ';
    line += "|";
    line += std::string(static_cast<std::size_t>(bar), '#');
    line += std::string(static_cast<std::size_t>(kWidth - bar) + 1, ' ');
    line += TextTable::num(v, 2) + "\n";
    out += line;
  }
}

}  // namespace

RenderResult render_report(const std::string& label, const std::string& json_text,
                           const ReportOptions& options) {
  RenderResult result;
  json::Value root;
  try {
    root = json::parse(json_text);
  } catch (const std::exception& e) {
    result.err = label + ": " + e.what() + "\n";
    result.exit_code = 2;
    return result;
  }
  if (!root.is_object()) {
    result.err = label + ": report root is not a JSON object\n";
    result.exit_code = 2;
    return result;
  }
  // Accept both the full to_json() shape and a bare aggregate_json().
  const json::Value* agg = root.find("aggregate");
  if (agg == nullptr) agg = &root;

  const json::Value* name = agg->find("label");
  result.out += "report " + label;
  result.out += "  label=" +
                (name != nullptr && name->is_string() ? name->string_value : std::string("?"));
  result.out += "  sessions=" + std::to_string(int_field(*agg, "sessions", -1));
  result.out +=
      "  base_seed=" + std::to_string(static_cast<unsigned long long>(int_field(*agg, "base_seed"))) +
      "\n";
  const json::Value* failures = agg->find("failures");
  if (failures != nullptr && failures->is_array() && !failures->array_items.empty()) {
    result.out += "FAILURES: " + std::to_string(failures->array_items.size()) + " task(s) threw\n";
  }
  const json::Value* trace = agg->find("trace");
  if (trace != nullptr && trace->is_object()) {
    const long long dropped = int_field(*trace, "dropped");
    result.out += "trace: " + std::to_string(int_field(*trace, "records")) + " records (" +
                  std::to_string(int_field(*trace, "spans")) + " spans, " +
                  std::to_string(int_field(*trace, "instants")) + " instants, " +
                  std::to_string(int_field(*trace, "counter_samples")) + " counter samples), " +
                  std::to_string(dropped) + " dropped\n";
    if (dropped > 0) {
      result.out += "WARNING: trace ring wrapped — " + std::to_string(dropped) +
                    " oldest record(s) were dropped; early-session spans are missing.\n"
                    "         Re-run with a larger trace capacity for full coverage.\n";
    }
  }
  const json::Value* timeline = agg->find("timeline");
  if (timeline != nullptr && timeline->is_object()) {
    const long long dropped = int_field(*timeline, "dropped");
    result.out += "timeline: " + std::to_string(int_field(*timeline, "samples")) + " samples over " +
                  std::to_string(int_field(*timeline, "columns")) + " columns, " +
                  std::to_string(dropped) + " dropped";
    const long long rules = int_field(*timeline, "health_rules");
    if (rules > 0) {
      result.out += "; health: " + std::to_string(rules) + " rule(s), " +
                    std::to_string(int_field(*timeline, "health_events")) + " event(s), " +
                    std::to_string(int_field(*timeline, "health_breaches")) + " breach(es)";
    }
    result.out += "\n";
    if (dropped > 0) {
      result.out += "WARNING: timeline ring wrapped — " + std::to_string(dropped) +
                    " oldest sample(s) were dropped from the exported window.\n";
    }
    if (int_field(*timeline, "write_failures") > 0) {
      result.out += "WARNING: " + std::to_string(int_field(*timeline, "write_failures")) +
                    " timeline file(s) failed to write.\n";
    }
  }
  // Throughput rates ride the full to_json() shape only (they derive from
  // wall-clock, so they live beside threads/wall_seconds, not in the
  // aggregate); a bare-aggregate report simply has none to show.
  const json::Value* rates = root.find("rates");
  if (rates != nullptr && rates->is_object() && !rates->object_items.empty()) {
    result.out += "rates:";
    for (const auto& [key, value] : rates->object_items) {
      if (!value.is_number()) continue;
      result.out += "  " + key + "=" + TextTable::num(value.number_value, 1);
    }
    result.out += "\n";
  }

  const json::Value* samples = agg->find("samples");
  if (options.list) {
    // Bare metric keys, one per line — greppable, and exactly the names
    // `--filter` and `--cdf BASE` (for <base>.p10..p90 families) accept.
    auto list_section = [&](const char* section, const json::Value* v) {
      if (v == nullptr || !v->is_object()) return;
      for (const auto& [key, _] : v->object_items) {
        if (name_matches(key, options.filter)) result.out += std::string(section) + " " + key + "\n";
      }
    };
    list_section("sample", samples);
    list_section("counter", agg->find("counters"));
    list_section("gauge", agg->find("gauges"));
    list_section("gauge_hwm", agg->find("gauge_hwm"));
    list_section("histogram", agg->find("histograms"));
    return result;
  }
  if (!options.cdf_base.empty()) {
    // A report without a samples section is old/minimal, not broken: say so
    // and exit clean (exit 2 is reserved for unusable input).
    if (samples == nullptr || !samples->is_object()) {
      result.out += "report has no samples section; nothing to plot for " + options.cdf_base + "\n";
      return result;
    }
    render_cdf(result.out, *samples, options.cdf_base);
    return result;
  }
  if (samples != nullptr) render_stats_section(result.out, "samples", *samples, options.filter);
  const json::Value* counters = agg->find("counters");
  if (counters != nullptr && counters->is_object() && !counters->object_items.empty()) {
    TextTable table{{"counter", "value"}};
    std::size_t rows = 0;
    for (const auto& [key, value] : counters->object_items) {
      if (!name_matches(key, options.filter) || !value.is_number()) continue;
      table.add_row({key, std::to_string(static_cast<long long>(value.number_value))});
      ++rows;
    }
    if (rows > 0) result.out += "counters\n" + table.render();
  }
  const json::Value* gauges = agg->find("gauges");
  if (gauges != nullptr) render_stats_section(result.out, "gauges", *gauges, options.filter);
  const json::Value* gauge_hwm = agg->find("gauge_hwm");
  if (gauge_hwm != nullptr) {
    render_stats_section(result.out, "gauge high-water marks", *gauge_hwm, options.filter);
  }
  const json::Value* histograms = agg->find("histograms");
  if (histograms != nullptr) {
    render_stats_section(result.out, "histograms", *histograms, options.filter);
  }
  return result;
}

}  // namespace vc::cli
