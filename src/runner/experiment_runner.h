// Parallel multi-session experiment runner.
//
// VCA measurement campaigns are embarrassingly parallel across sessions:
// every sweep point (participant count, bandwidth cap, location, repetition)
// is an independent simulated session with its own EventLoop, Network and
// platform instance. The runner executes N such session tasks on a thread
// pool and reduces their results into one aggregate report.
//
// Determinism contract: a task's only inputs are its SessionContext (seed =
// base_seed ^ task_index) and whatever immutable config the caller captured,
// and tasks share no mutable state. Results are reduced strictly in
// task-index order after all tasks finish, so the same base seed produces a
// bit-identical aggregate report at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/metrics_timeline.h"
#include "common/stats.h"
#include "common/time.h"
#include "common/tracer.h"
#include "health/health_monitor.h"

namespace vc::runner {

/// Handed to each session task. The task builds its whole simulation world
/// from `seed`, records named scalar observations via sample(), and lets
/// instrumented components (shapers, relays, controllers) write into
/// `metrics`.
struct SessionContext {
  std::size_t task_index = 0;
  /// base_seed ^ task_index: a per-task deterministic stream.
  std::uint64_t seed = 0;
  MetricsRegistry metrics;
  /// Per-task flight recorder, non-null iff Config::trace_dir is set. The
  /// runner owns it and writes `<task_index>.trace.json` after the task
  /// returns; the task just hands it to instrumented components.
  Tracer* tracer = nullptr;
  /// Per-task metric sampler, non-null iff Config::timeline_dir is set. The
  /// runner owns it and writes `<task_index>.timeline.json` after the task
  /// returns; the task arms it on its session's event loop (typically by
  /// passing it to a core benchmark config, which calls
  /// `timeline->arm(loop, ctx.metrics, origin, until)`).
  MetricsTimeline* timeline = nullptr;
  /// SLO rule engine attached as the timeline's observer, non-null iff
  /// Config::health_rules is non-empty (and timeline_dir is set). Tasks may
  /// read events() after their session loop drains — e.g. to bucket breach
  /// begins by phase; breaches still open then are closed by the runner's
  /// finalize, after the task returns.
  const health::HealthMonitor* health = nullptr;

  void sample(const std::string& name, double value) { samples.emplace_back(name, value); }

  std::vector<std::pair<std::string, double>> samples;
};

/// Aggregate of a whole run. Sample/gauge values aggregate as RunningStats
/// across sessions; counters sum; histograms merge their streaming moments.
struct RunReport {
  std::string label;
  std::uint64_t base_seed = 0;
  std::size_t sessions = 0;
  std::size_t threads = 0;
  /// (task_index, what()) for tasks that threw; their partial results are
  /// excluded from the aggregates below.
  std::vector<std::pair<std::size_t, std::string>> failures;

  std::map<std::string, RunningStats> samples;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, RunningStats> gauges;
  /// Per-task gauge high-water marks (Gauge::max()), aggregated like gauges.
  /// Surfaces peak queue depths that drained before the end-of-run snapshot;
  /// absent from aggregate_json() when no gauges exist.
  std::map<std::string, RunningStats> gauge_hwm;
  std::map<std::string, RunningStats> histograms;

  /// Flight-recorder accounting when Config::trace_dir was set. All-integer
  /// sums over tasks (in task-index order), so the block is bit-identical at
  /// any thread count; when tracing is off the block is absent from
  /// aggregate_json() entirely, keeping untraced reports unchanged.
  struct TraceSummary {
    bool enabled = false;
    std::uint64_t records = 0;   // retained in the rings across all tasks
    std::uint64_t dropped = 0;   // lost to ring wrap across all tasks
    std::uint64_t spans = 0;
    std::uint64_t instants = 0;
    std::uint64_t counter_samples = 0;
    std::uint64_t write_failures = 0;  // trace files that failed to write
  };
  TraceSummary trace;

  /// Metric-timeline accounting when Config::timeline_dir was set. Same
  /// determinism shape as TraceSummary: all-integer sums in task-index
  /// order, absent from aggregate_json() when timelines are off.
  struct TimelineSummary {
    bool enabled = false;
    std::uint64_t samples = 0;  // snapshots taken across all tasks
    std::uint64_t columns = 0;  // columns discovered across all tasks
    std::uint64_t dropped = 0;  // snapshots lost to ring wrap
    std::uint64_t write_failures = 0;
    std::uint64_t health_rules = 0;   // rules armed, summed over tasks
    std::uint64_t health_events = 0;  // breach begin+end edges
    std::uint64_t health_breaches = 0;
  };
  TimelineSummary timeline;

  /// Wall-clock of the run. Timing metadata only — deliberately excluded
  /// from aggregate_json() so reports compare equal across thread counts.
  double wall_seconds = 0.0;

  /// Throughput rates (`<counter>_per_sec` = summed counter / wall_seconds)
  /// for the counters named in Config::rate_counters. Derived from
  /// wall-clock, so like threads/wall_seconds they live OUTSIDE
  /// aggregate_json() — to_json() carries them in a separate "rates" block.
  std::map<std::string, double> rates;

  /// Deterministic JSON: everything except timing/thread metadata. Two runs
  /// with the same base seed and task list produce byte-identical strings
  /// regardless of thread count.
  std::string aggregate_json() const;
  /// Full JSON report: aggregate plus {threads, wall_seconds}.
  std::string to_json() const;

  /// Convenience for rendering tables from a report; nullptr if absent.
  const RunningStats* find_sample(const std::string& name) const;
};

class ExperimentRunner {
 public:
  struct Config {
    /// 0 = one thread per hardware core.
    std::size_t threads = 0;
    std::uint64_t base_seed = 1;
    std::string label = "experiment";
    /// Non-empty: enable per-task flight recording and write one Chrome
    /// trace-event file `<trace_dir>/<task_index>.trace.json` per task.
    /// Files are keyed by task index (never by thread), so a traced run
    /// emits byte-identical files at any thread count.
    std::string trace_dir;
    /// Ring capacity (records) of each per-task Tracer.
    std::size_t trace_capacity = Tracer::kDefaultCapacity;
    /// Non-empty: hand each task a MetricsTimeline and write one
    /// `<timeline_dir>/<task_index>.timeline.json` per task (the task still
    /// has to arm it on its session loop). Files are keyed by task index, so
    /// a sampled run emits byte-identical files at any thread count.
    std::string timeline_dir;
    /// Sampling period / ring capacity (snapshots) of each per-task timeline.
    SimDuration timeline_interval = seconds(1);
    std::size_t timeline_capacity = 1024;
    /// SLO rules evaluated against every timeline snapshot (requires
    /// timeline_dir). Breach events land in the timeline file's "health"
    /// section, in per-task `health.<rule>.breaches` counters, and in the
    /// report's timeline summary.
    std::vector<health::SloRule> health_rules;
    /// Counters to report as first-class throughput rates: each name here
    /// yields RunReport::rates["<name>_per_sec"] = summed value /
    /// wall_seconds (0 when the counter never fired). Missing counters rate
    /// as 0 rather than erroring, so sweeps can name instruments that only
    /// some configurations register.
    std::vector<std::string> rate_counters;
  };

  using Task = std::function<void(SessionContext&)>;

  explicit ExperimentRunner(Config config) : config_(config) {}

  /// Runs `n_sessions` invocations of `task` across the pool. `task` must be
  /// callable concurrently from several threads (each call gets its own
  /// context; capture only immutable state).
  RunReport run(std::size_t n_sessions, const Task& task) const;

 private:
  Config config_;
};

/// Writes `text` to `path`; returns false (and logs nothing) on I/O failure.
bool write_text_file(const std::string& path, const std::string& text);

/// Reads the whole file at `path` into `*out`, byte for byte; returns false
/// (leaving `*out` untouched) when it cannot be opened or is a directory.
bool read_text_file(const std::string& path, std::string* out);

}  // namespace vc::runner
