// Deterministic time-series snapshots of a MetricsRegistry.
//
// A MetricsTimeline is a sim-time-driven periodic sampler: armed on a
// session's net::EventLoop, it snapshots every counter/gauge/histogram in the
// session's registry into a preallocated ring of per-column samples. The
// design goals mirror vc::Tracer's (DESIGN.md §6):
//
//  1. Structurally zero cost when off. Off is a null `MetricsTimeline*` in
//     the session's vc::Instruments: nothing binds or arms it, so no tick is
//     ever scheduled. A timeline that exists samples once armed.
//  2. Zero allocation in steady state. Column rings are preallocated when a
//     column is first discovered; subsequent samples are a pure merge-walk of
//     the registry's name-sorted maps against the name-sorted column lists.
//     The self-rescheduling tick reuses its event-loop slot. Enforced by a
//     counting-allocator test (tests_timeline_hotpath), the same discipline
//     as the codec hot path.
//  3. Deterministic output. Sampling reads sim time and registry state only;
//     columns are emitted in byte-wise name order; counters (and histogram
//     counts) are delta-encoded against an eviction-maintained base. The
//     exported JSON is byte-identical at any thread count × fleet size
//     (tests/determinism/test_timeline_determinism.cpp).
//
// When the ring wraps, the oldest samples are dropped (flight-recorder
// semantics, like the Tracer): evicted counter deltas fold into each column's
// `base` so decoded cumulative values stay exact over the retained window.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/time.h"

namespace vc {

class MetricsTimeline {
 public:
  struct Config {
    /// Sampling period. Clamped to >= 1 us.
    SimDuration interval = seconds(1);
    /// Retained samples per column (ring capacity). Clamped to >= 1.
    std::size_t capacity = 1024;
  };

  /// Snapshot hook, called synchronously after every sample (and once at
  /// finalize). health::HealthMonitor implements this; the indirection keeps
  /// vc_common free of a dependency on the rule engine.
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void on_sample(const MetricsTimeline& timeline, SimTime at) = 0;
    virtual void on_finalize(const MetricsTimeline& timeline, SimTime at) = 0;
  };

  /// Monotonic instrument: per-sample deltas of the counter's cumulative
  /// value. Decoding sample j (global index start()+j over the retained
  /// window) is base + the running sum of deltas[0..j].
  struct CounterColumn {
    std::string name;
    /// Global sample index of this column's first recorded sample (columns
    /// discovered mid-run start late; earlier slots are never emitted).
    std::size_t first_sample = 0;
    /// Cumulative counter value just before the oldest retained sample of
    /// this column. Starts at 0; evicted deltas fold in on ring wrap.
    std::int64_t base = 0;
    /// Ring of per-sample deltas, indexed by global sample index % capacity.
    std::vector<std::int64_t> deltas;
    // Hot-path state + latest-snapshot view for Observers.
    std::int64_t prev = 0;          // raw value at the latest sample
    std::int64_t latest_delta = 0;  // delta recorded by the latest sample
  };

  struct GaugeColumn {
    std::string name;
    std::size_t first_sample = 0;
    /// Ring of raw values, indexed by global sample index % capacity.
    std::vector<double> values;
    double latest = 0.0;
  };

  /// A histogram snapshots as three parallel tracks: cumulative observation
  /// count (delta-encoded like a counter) plus running mean and max.
  struct HistogramColumn {
    std::string name;
    std::size_t first_sample = 0;
    std::int64_t count_base = 0;
    std::vector<std::int64_t> count_deltas;
    std::vector<double> means;
    std::vector<double> maxes;
    std::int64_t prev_count = 0;
    std::int64_t latest_count_delta = 0;
    double latest_mean = 0.0;
    double latest_max = 0.0;
  };

  MetricsTimeline();
  explicit MetricsTimeline(Config config);

  /// Borrowed pointer; nullptr (the default) detaches.
  void set_observer(Observer* observer) { observer_ = observer; }
  Observer* observer() const { return observer_; }

  /// Binds the registry to snapshot without scheduling anything (unit tests
  /// drive sample_now() by hand; arm() calls this internally).
  void bind(const MetricsRegistry& registry) { registry_ = &registry; }

  /// Schedules periodic samples at `origin`, `origin + interval`, ... while
  /// the tick time stays <= `until`. The bound is required: EventLoop::run()
  /// drains the queue, so an unbounded self-rescheduling tick would never
  /// let the session terminate.
  ///
  /// Templated on the loop type (anything with now()/schedule_at, i.e.
  /// net::EventLoop) so vc_common never links against vc_net; the 16-byte
  /// tick closure lives in the event slot's inline storage, and the slot
  /// freed by each tick is reused by the next schedule — allocation-free.
  template <class Loop>
  void arm(Loop& loop, const MetricsRegistry& registry, SimTime origin, SimTime until) {
    bind(registry);
    until_us_ = until.micros();
    if (origin < loop.now()) origin = loop.now();
    if (origin.micros() > until_us_) return;
    schedule_tick(loop, origin);
  }

  /// Takes one snapshot of the bound registry. Called by the armed tick;
  /// public so tests (and custom schedulers) can drive sampling directly.
  void sample_now(SimTime at);

  /// Notifies the observer that no more samples are coming (closing any
  /// still-open SLO breaches at the last sample's timestamp). Idempotent.
  void finalize();

  // ---- snapshot accounting ----
  /// Samples ever taken (kept + dropped).
  std::size_t total_samples() const { return total_; }
  /// Samples currently retained in the rings.
  std::size_t retained_samples() const { return total_ < config_.capacity ? total_ : config_.capacity; }
  /// Samples lost to ring wrap.
  std::size_t dropped_samples() const { return total_ - retained_samples(); }
  /// Global index of the oldest retained sample.
  std::size_t oldest_sample() const { return total_ - retained_samples(); }
  std::size_t column_count() const {
    return counter_cols_.size() + gauge_cols_.size() + histogram_cols_.size();
  }
  SimTime last_sample_time() const { return SimTime{last_sample_us_}; }
  const Config& config() const { return config_; }

  /// Timestamp ring, indexed by global sample index % capacity.
  const std::vector<std::int64_t>& ts_ring_us() const { return ts_us_; }

  // Name-sorted columns; the find_* lookups binary-search and never allocate
  // (HealthMonitor resolves through them on every snapshot).
  const std::vector<CounterColumn>& counter_columns() const { return counter_cols_; }
  const CounterColumn* find_counter(const std::string& name) const;
  const GaugeColumn* find_gauge(const std::string& name) const;
  const HistogramColumn* find_histogram(const std::string& name) const;

  /// Deterministic JSON object:
  ///   {"interval_us":..,"total_samples":..,"samples":..,"dropped":..,
  ///    "ts_us":[..],"counters":[{"name","start","base","deltas":[..]},..],
  ///    "gauges":[{"name","start","values":[..]},..],
  ///    "histograms":[{"name","start","count_base","count_deltas":[..],
  ///                   "mean":[..],"max":[..]},..]}
  /// Columns in byte-wise name order; `start` is the absolute global sample
  /// index of a column's first emitted value (ts of value j is ts_us[start +
  /// j - (total_samples - samples)]). Doubles go through json::format_number
  /// so the bytes are locale-independent.
  std::string to_json() const;

 private:
  template <class Loop>
  void schedule_tick(Loop& loop, SimTime at) {
    loop.schedule_at(at, [this, &loop] {
      sample_now(loop.now());
      const SimTime next = loop.now() + config_.interval;
      if (next.micros() <= until_us_) schedule_tick(loop, next);
    });
  }
  /// Aligns the column lists with the registry's instrument sets. Fast path:
  /// when the sizes already match, the sorted lists are necessarily
  /// identical (instruments are never removed), so nothing is compared.
  void sync_columns();

  Config config_;
  bool finalized_ = false;
  const MetricsRegistry* registry_ = nullptr;
  Observer* observer_ = nullptr;
  std::int64_t until_us_ = 0;
  std::int64_t last_sample_us_ = 0;
  std::size_t total_ = 0;
  std::vector<std::int64_t> ts_us_;
  std::vector<CounterColumn> counter_cols_;
  std::vector<GaugeColumn> gauge_cols_;
  std::vector<HistogramColumn> histogram_cols_;
};

}  // namespace vc
