#include "common/metrics_timeline.h"

#include <algorithm>

#include "common/json.h"

namespace vc {
namespace {

/// lower_bound over a name-sorted column vector; no allocation.
template <class Col>
const Col* find_column(const std::vector<Col>& cols, const std::string& name) {
  const auto it = std::lower_bound(
      cols.begin(), cols.end(), name,
      [](const Col& col, const std::string& key) { return col.name < key; });
  return it != cols.end() && it->name == name ? &*it : nullptr;
}

/// Merge-inserts any registry instrument missing from `cols`. Both sequences
/// are name-sorted and instruments are never removed, so a single in-order
/// walk finds every gap; `make` builds the new column (the only allocating
/// step, paid once per column at discovery).
template <class Map, class Col, class Make>
void sync_one(const Map& instruments, std::vector<Col>& cols, const Make& make) {
  if (instruments.size() == cols.size()) return;  // sorted + same size => identical names
  std::size_t i = 0;
  for (const auto& [name, instrument] : instruments) {
    (void)instrument;
    if (i == cols.size() || cols[i].name != name) {
      cols.insert(cols.begin() + static_cast<std::ptrdiff_t>(i), make(name));
    }
    ++i;
  }
}

void append_int_array(std::string& out, const char* key, const std::vector<std::int64_t>& ring,
                      std::size_t start_slot, std::size_t count, std::size_t capacity) {
  out += "\"";
  out += key;
  out += "\":[";
  for (std::size_t j = 0; j < count; ++j) {
    if (j) out += ",";
    out += std::to_string(ring[(start_slot + j) % capacity]);
  }
  out += "]";
}

void append_double_array(std::string& out, const char* key, const std::vector<double>& ring,
                         std::size_t start_slot, std::size_t count, std::size_t capacity) {
  out += "\"";
  out += key;
  out += "\":[";
  for (std::size_t j = 0; j < count; ++j) {
    if (j) out += ",";
    out += json::format_number(ring[(start_slot + j) % capacity]);
  }
  out += "]";
}

void append_name(std::string& out, const std::string& name) {
  out += "{\"name\":\"";
  json::append_escaped(out, name);
  out += "\"";
}

}  // namespace

MetricsTimeline::MetricsTimeline() : MetricsTimeline(Config{}) {}

MetricsTimeline::MetricsTimeline(Config config) : config_(config) {
  if (config_.capacity < 1) config_.capacity = 1;
  if (config_.interval < micros(1)) config_.interval = micros(1);
  ts_us_.assign(config_.capacity, 0);
}

void MetricsTimeline::sample_now(SimTime at) {
  if (registry_ == nullptr) return;
  sync_columns();
  const std::size_t cap = config_.capacity;
  const std::size_t slot = total_ % cap;
  const bool evicting = total_ >= cap;
  const std::size_t evicted = evicting ? total_ - cap : 0;
  ts_us_[slot] = at.micros();

  // sync_columns() left every column list the same size as (and, both being
  // name-sorted with no removals, aligned 1:1 with) its registry map, so the
  // walks below zip by index without comparing names.
  std::size_t i = 0;
  for (const auto& [name, counter] : registry_->counters()) {
    (void)name;
    CounterColumn& col = counter_cols_[i++];
    const std::int64_t value = counter.value();
    const std::int64_t delta = value - col.prev;
    col.prev = value;
    col.latest_delta = delta;
    if (evicting && evicted >= col.first_sample) col.base += col.deltas[slot];
    col.deltas[slot] = delta;
  }
  i = 0;
  for (const auto& [name, gauge] : registry_->gauges()) {
    (void)name;
    GaugeColumn& col = gauge_cols_[i++];
    col.latest = gauge.value();
    col.values[slot] = col.latest;
  }
  i = 0;
  for (const auto& [name, histogram] : registry_->histograms()) {
    (void)name;
    HistogramColumn& col = histogram_cols_[i++];
    const RunningStats& stats = histogram.stats();
    const std::int64_t count = static_cast<std::int64_t>(stats.count());
    const std::int64_t delta = count - col.prev_count;
    col.prev_count = count;
    col.latest_count_delta = delta;
    col.latest_mean = stats.count() > 0 ? stats.mean() : 0.0;
    col.latest_max = stats.count() > 0 ? stats.max() : 0.0;
    if (evicting && evicted >= col.first_sample) col.count_base += col.count_deltas[slot];
    col.count_deltas[slot] = delta;
    col.means[slot] = col.latest_mean;
    col.maxes[slot] = col.latest_max;
  }

  last_sample_us_ = at.micros();
  ++total_;
  if (observer_ != nullptr) observer_->on_sample(*this, at);
}

void MetricsTimeline::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (observer_ != nullptr) observer_->on_finalize(*this, SimTime{last_sample_us_});
}

void MetricsTimeline::sync_columns() {
  const std::size_t cap = config_.capacity;
  const std::size_t first = total_;
  sync_one(registry_->counters(), counter_cols_, [cap, first](const std::string& name) {
    CounterColumn col;
    col.name = name;
    col.first_sample = first;
    col.deltas.assign(cap, 0);
    return col;
  });
  sync_one(registry_->gauges(), gauge_cols_, [cap, first](const std::string& name) {
    GaugeColumn col;
    col.name = name;
    col.first_sample = first;
    col.values.assign(cap, 0.0);
    return col;
  });
  sync_one(registry_->histograms(), histogram_cols_, [cap, first](const std::string& name) {
    HistogramColumn col;
    col.name = name;
    col.first_sample = first;
    col.count_deltas.assign(cap, 0);
    col.means.assign(cap, 0.0);
    col.maxes.assign(cap, 0.0);
    return col;
  });
}

const MetricsTimeline::CounterColumn* MetricsTimeline::find_counter(const std::string& name) const {
  return find_column(counter_cols_, name);
}
const MetricsTimeline::GaugeColumn* MetricsTimeline::find_gauge(const std::string& name) const {
  return find_column(gauge_cols_, name);
}
const MetricsTimeline::HistogramColumn* MetricsTimeline::find_histogram(
    const std::string& name) const {
  return find_column(histogram_cols_, name);
}

std::string MetricsTimeline::to_json() const {
  const std::size_t cap = config_.capacity;
  const std::size_t retained = retained_samples();
  const std::size_t oldest = oldest_sample();
  std::string out = "{\"interval_us\":" + std::to_string(config_.interval.micros());
  out += ",\"total_samples\":" + std::to_string(total_);
  out += ",\"samples\":" + std::to_string(retained);
  out += ",\"dropped\":" + std::to_string(dropped_samples());
  out += ",\"ts_us\":[";
  for (std::size_t j = 0; j < retained; ++j) {
    if (j) out += ",";
    out += std::to_string(ts_us_[(oldest + j) % cap]);
  }
  out += "],\"counters\":[";
  bool first = true;
  for (const CounterColumn& col : counter_cols_) {
    const std::size_t start = std::max(col.first_sample, oldest);
    if (!first) out += ",";
    first = false;
    append_name(out, col.name);
    out += ",\"start\":" + std::to_string(start);
    out += ",\"base\":" + std::to_string(col.base) + ",";
    append_int_array(out, "deltas", col.deltas, start % cap, total_ - start, cap);
    out += "}";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const GaugeColumn& col : gauge_cols_) {
    const std::size_t start = std::max(col.first_sample, oldest);
    if (!first) out += ",";
    first = false;
    append_name(out, col.name);
    out += ",\"start\":" + std::to_string(start) + ",";
    append_double_array(out, "values", col.values, start % cap, total_ - start, cap);
    out += "}";
  }
  out += "],\"histograms\":[";
  first = true;
  for (const HistogramColumn& col : histogram_cols_) {
    const std::size_t start = std::max(col.first_sample, oldest);
    if (!first) out += ",";
    first = false;
    append_name(out, col.name);
    out += ",\"start\":" + std::to_string(start);
    out += ",\"count_base\":" + std::to_string(col.count_base) + ",";
    append_int_array(out, "count_deltas", col.count_deltas, start % cap, total_ - start, cap);
    out += ",";
    append_double_array(out, "mean", col.means, start % cap, total_ - start, cap);
    out += ",";
    append_double_array(out, "max", col.maxes, start % cap, total_ - start, cap);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace vc
