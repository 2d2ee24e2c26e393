#include "cli/timeline_render.h"

#include <algorithm>
#include <stdexcept>

#include "common/json.h"
#include "common/table.h"

namespace vc::cli {
namespace {

std::size_t size_field(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || !v->is_number()) throw std::runtime_error{std::string("timeline JSON: missing ") + key};
  return static_cast<std::size_t>(v->number_value);
}

std::vector<double> number_array(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || !v->is_array()) throw std::runtime_error{std::string("timeline JSON: missing array ") + key};
  std::vector<double> out;
  out.reserve(v->array_items.size());
  for (const json::Value& item : v->array_items) {
    if (!item.is_number()) throw std::runtime_error{std::string("timeline JSON: non-number in ") + key};
    out.push_back(item.number_value);
  }
  return out;
}

/// Decodes a delta-encoded track (counter values or histogram counts) into
/// cumulative values: base + running sum.
std::vector<double> decode_cumulative(double base, const std::vector<double>& deltas) {
  std::vector<double> out;
  out.reserve(deltas.size());
  double cum = base;
  for (double d : deltas) {
    cum += d;
    out.push_back(cum);
  }
  return out;
}

/// 10-level ASCII sparkline scaled to the series' min..max, bucketing by max
/// when the series outgrows `width`. A flat nonzero series renders as the
/// lowest ink level (not blank) so it stays visible.
std::string sparkline(const std::vector<double>& values, int width) {
  static const char kLevels[] = " .:-=+*#%@";
  constexpr int kLevelCount = 10;
  if (values.empty() || width <= 0) return "";
  std::vector<double> buckets;
  if (static_cast<int>(values.size()) <= width) {
    buckets = values;
  } else {
    buckets.resize(static_cast<std::size_t>(width));
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      const std::size_t lo = b * values.size() / buckets.size();
      const std::size_t hi = std::max(lo + 1, (b + 1) * values.size() / buckets.size());
      double peak = values[lo];
      for (std::size_t i = lo + 1; i < hi && i < values.size(); ++i) peak = std::max(peak, values[i]);
      buckets[b] = peak;
    }
  }
  double lo = buckets[0];
  double hi = buckets[0];
  for (double v : buckets) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  out.reserve(buckets.size());
  for (double v : buckets) {
    int level;
    if (hi > lo) {
      level = static_cast<int>((v - lo) / (hi - lo) * (kLevelCount - 1) + 0.5);
    } else {
      level = v != 0.0 ? 1 : 0;  // flat series: visible unless it's all zero
    }
    out += kLevels[std::clamp(level, 0, kLevelCount - 1)];
  }
  return out;
}

void append_series_json(std::string& out, const TimelineSeries& series, bool first) {
  if (!first) out += ",";
  out += "{\"name\":\"";
  json::append_escaped(out, series.name);
  out += "\",\"offset\":" + std::to_string(series.offset) + ",\"values\":[";
  for (std::size_t i = 0; i < series.values.size(); ++i) {
    if (i) out += ",";
    out += json::format_number(series.values[i]);
  }
  out += "]}";
}

}  // namespace

TimelineDoc parse_timeline(const std::string& json_text) {
  const json::Value root = json::parse(json_text);
  if (!root.is_object()) throw std::runtime_error{"timeline JSON: root is not an object"};
  const json::Value* timeline = root.find("timeline");
  if (timeline == nullptr) timeline = &root;
  if (!timeline->is_object() || timeline->find("ts_us") == nullptr) {
    throw std::runtime_error{"timeline JSON: no timeline object (expected ts_us)"};
  }

  TimelineDoc doc;
  doc.interval_us = static_cast<std::int64_t>(size_field(*timeline, "interval_us"));
  doc.total_samples = size_field(*timeline, "total_samples");
  doc.samples = size_field(*timeline, "samples");
  doc.dropped = size_field(*timeline, "dropped");
  for (double ts : number_array(*timeline, "ts_us")) {
    doc.ts_us.push_back(static_cast<std::int64_t>(ts));
  }
  if (doc.ts_us.size() != doc.samples) {
    throw std::runtime_error{"timeline JSON: ts_us length disagrees with samples"};
  }
  const std::size_t oldest = doc.total_samples - doc.samples;

  auto column_offset = [&](const json::Value& col) {
    const std::size_t start = size_field(col, "start");
    if (start < oldest || start > doc.total_samples) {
      throw std::runtime_error{"timeline JSON: column start outside retained window"};
    }
    return start - oldest;
  };
  auto column_name = [](const json::Value& col) {
    const json::Value* name = col.find("name");
    if (name == nullptr || !name->is_string()) throw std::runtime_error{"timeline JSON: column without name"};
    return name->string_value;
  };

  const json::Value* counters = timeline->find("counters");
  if (counters != nullptr && counters->is_array()) {
    for (const json::Value& col : counters->array_items) {
      TimelineSeries series;
      series.name = column_name(col);
      series.offset = column_offset(col);
      const json::Value* base = col.find("base");
      series.values = decode_cumulative(
          base != nullptr && base->is_number() ? base->number_value : 0.0,
          number_array(col, "deltas"));
      doc.series.push_back(std::move(series));
    }
  }
  const json::Value* gauges = timeline->find("gauges");
  if (gauges != nullptr && gauges->is_array()) {
    for (const json::Value& col : gauges->array_items) {
      TimelineSeries series;
      series.name = column_name(col);
      series.offset = column_offset(col);
      series.values = number_array(col, "values");
      doc.series.push_back(std::move(series));
    }
  }
  const json::Value* histograms = timeline->find("histograms");
  if (histograms != nullptr && histograms->is_array()) {
    for (const json::Value& col : histograms->array_items) {
      const std::string name = column_name(col);
      const std::size_t offset = column_offset(col);
      const json::Value* count_base = col.find("count_base");
      TimelineSeries count;
      count.name = name + ".count";
      count.offset = offset;
      count.values = decode_cumulative(
          count_base != nullptr && count_base->is_number() ? count_base->number_value : 0.0,
          number_array(col, "count_deltas"));
      doc.series.push_back(std::move(count));
      TimelineSeries mean;
      mean.name = name + ".mean";
      mean.offset = offset;
      mean.values = number_array(col, "mean");
      doc.series.push_back(std::move(mean));
      TimelineSeries max;
      max.name = name + ".max";
      max.offset = offset;
      max.values = number_array(col, "max");
      doc.series.push_back(std::move(max));
    }
  }
  for (const TimelineSeries& series : doc.series) {
    if (series.offset + series.values.size() != doc.samples && !series.values.empty()) {
      throw std::runtime_error{"timeline JSON: column '" + series.name +
                               "' does not span to the latest sample"};
    }
  }

  const json::Value* health = root.find("health");
  if (health != nullptr && health->is_object()) {
    doc.has_health = true;
    const json::Value* events = health->find("events");
    if (events != nullptr && events->is_array()) {
      for (const json::Value& ev : events->array_items) {
        if (!ev.is_object()) continue;
        HealthEventRow row;
        row.rule = ev.at("rule").as_string();
        row.begin = ev.at("type").as_string() == "begin";
        row.severity = ev.at("severity").as_string();
        row.ts_us = static_cast<std::int64_t>(ev.at("ts_us").as_number());
        row.value = ev.at("value").as_number();
        doc.health_events.push_back(std::move(row));
      }
    }
    const json::Value* breaches = health->find("breaches");
    if (breaches != nullptr && breaches->is_object()) {
      for (const auto& [rule, count] : breaches->object_items) {
        if (count.is_number()) {
          doc.breaches.emplace_back(rule, static_cast<std::int64_t>(count.number_value));
        }
      }
    }
  }
  return doc;
}

RenderResult render_timeline(const std::string& label, const std::string& json_text,
                             const TimelineOptions& options) {
  RenderResult result;
  TimelineDoc doc;
  try {
    doc = parse_timeline(json_text);
  } catch (const std::exception& e) {
    result.err = label + ": " + e.what() + "\n";
    result.exit_code = 2;
    return result;
  }

  if (options.json) {
    std::string out = "{\"interval_us\":" + std::to_string(doc.interval_us);
    out += ",\"samples\":" + std::to_string(doc.samples);
    out += ",\"dropped\":" + std::to_string(doc.dropped);
    out += ",\"ts_us\":[";
    for (std::size_t i = 0; i < doc.ts_us.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(doc.ts_us[i]);
    }
    out += "],\"series\":[";
    bool first = true;
    for (const TimelineSeries& series : doc.series) {
      if (!name_matches(series.name, options.metric)) continue;
      append_series_json(out, series, first);
      first = false;
    }
    out += "]}\n";
    result.out = out;
    return result;
  }

  result.out += "timeline " + label + ": " + std::to_string(doc.samples) + " sample(s)";
  if (doc.dropped > 0) result.out += " (+" + std::to_string(doc.dropped) + " dropped)";
  result.out += ", interval " + TextTable::num(static_cast<double>(doc.interval_us) / 1000.0, 1) +
                " ms, " + std::to_string(doc.series.size()) + " series\n";
  if (doc.dropped > 0) {
    result.out += "WARNING: timeline ring wrapped — the oldest " + std::to_string(doc.dropped) +
                  " sample(s) are gone from this window.\n";
  }

  if (options.metric.empty()) {
    TextTable table{{"series", "n", "first", "last", "min", "max"}};
    for (const TimelineSeries& series : doc.series) {
      if (series.values.empty()) {
        table.add_row({series.name, "0", "-", "-", "-", "-"});
        continue;
      }
      double lo = series.values[0];
      double hi = series.values[0];
      for (double v : series.values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      table.add_row({series.name, std::to_string(series.values.size()),
                     TextTable::num(series.values.front(), 3), TextTable::num(series.values.back(), 3),
                     TextTable::num(lo, 3), TextTable::num(hi, 3)});
    }
    result.out += table.render();
  } else {
    std::size_t matched = 0;
    for (const TimelineSeries& series : doc.series) {
      if (!name_matches(series.name, options.metric)) continue;
      ++matched;
      double lo = 0.0;
      double hi = 0.0;
      if (!series.values.empty()) {
        lo = hi = series.values[0];
        for (double v : series.values) {
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
      }
      result.out += series.name + "  [" + TextTable::num(lo, 3) + " .. " + TextTable::num(hi, 3) +
                    "]\n  |" + sparkline(series.values, options.width) + "|\n";
    }
    if (matched == 0) {
      result.out += "no series matches '" + options.metric + "' (run without --metric to list)\n";
    }
  }

  if (doc.has_health) {
    if (!doc.health_events.empty()) {
      TextTable table{{"t (s)", "rule", "edge", "severity", "value"}};
      for (const HealthEventRow& ev : doc.health_events) {
        table.add_row({TextTable::num(static_cast<double>(ev.ts_us) / 1e6, 3), ev.rule,
                       ev.begin ? "BREACH" : "recover", ev.severity, TextTable::num(ev.value, 3)});
      }
      result.out += "SLO events\n" + table.render();
    } else {
      result.out += "SLO: no breaches\n";
    }
    for (const auto& [rule, count] : doc.breaches) {
      if (count > 0) result.out += "  " + rule + ": " + std::to_string(count) + " breach(es)\n";
    }
  }
  return result;
}

}  // namespace vc::cli
