#include "runner/experiment_runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/json.h"

namespace vc::runner {
namespace {

// Round-trippable representation: aggregates built from identical doubles
// render identically, which is all bit-identical reports need. Goes through
// json::format_number so the bytes don't depend on LC_NUMERIC.
std::string json_num(double v) { return json::format_number(v); }

void append_stats_object(std::string& out, const RunningStats& s) {
  out += "{\"count\":" + std::to_string(s.count());
  out += ",\"mean\":" + json_num(s.mean());
  out += ",\"stddev\":" + json_num(s.stddev());
  out += ",\"min\":" + json_num(s.min());
  out += ",\"max\":" + json_num(s.max());
  out += ",\"sum\":" + json_num(s.sum());
  out += "}";
}

void append_stats_map(std::string& out, const char* key,
                      const std::map<std::string, RunningStats>& m) {
  out += "\"";
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, stats] : m) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    json::append_escaped(out, name);
    out += "\":";
    append_stats_object(out, stats);
  }
  out += "}";
}

// Adds one task's counts into the run's; `enabled` stays the run's own.
void add_counts(RunReport::TraceSummary& run, const RunReport::TraceSummary& task) {
  run.records += task.records;
  run.dropped += task.dropped;
  run.spans += task.spans;
  run.instants += task.instants;
  run.counter_samples += task.counter_samples;
  run.write_failures += task.write_failures;
}

void add_counts(RunReport::TimelineSummary& run, const RunReport::TimelineSummary& task) {
  run.samples += task.samples;
  run.columns += task.columns;
  run.dropped += task.dropped;
  run.write_failures += task.write_failures;
  run.health_rules += task.health_rules;
  run.health_events += task.health_events;
  run.health_breaches += task.health_breaches;
}

}  // namespace

std::string RunReport::aggregate_json() const {
  std::string out = "{";
  out += "\"label\":\"";
  json::append_escaped(out, label);
  out += "\"";
  out += ",\"base_seed\":" + std::to_string(base_seed);
  out += ",\"sessions\":" + std::to_string(sessions);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i) out += ",";
    out += "{\"task\":" + std::to_string(failures[i].first) + ",\"error\":\"";
    json::append_escaped(out, failures[i].second);
    out += "\"}";
  }
  out += "],";
  if (trace.enabled) {
    out += "\"trace\":{\"records\":" + std::to_string(trace.records);
    out += ",\"dropped\":" + std::to_string(trace.dropped);
    out += ",\"spans\":" + std::to_string(trace.spans);
    out += ",\"instants\":" + std::to_string(trace.instants);
    out += ",\"counter_samples\":" + std::to_string(trace.counter_samples);
    out += ",\"write_failures\":" + std::to_string(trace.write_failures);
    out += "},";
  }
  if (timeline.enabled) {
    out += "\"timeline\":{\"samples\":" + std::to_string(timeline.samples);
    out += ",\"columns\":" + std::to_string(timeline.columns);
    out += ",\"dropped\":" + std::to_string(timeline.dropped);
    out += ",\"write_failures\":" + std::to_string(timeline.write_failures);
    out += ",\"health_rules\":" + std::to_string(timeline.health_rules);
    out += ",\"health_events\":" + std::to_string(timeline.health_events);
    out += ",\"health_breaches\":" + std::to_string(timeline.health_breaches);
    out += "},";
  }
  append_stats_map(out, "samples", samples);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    json::append_escaped(out, name);
    out += "\":" + std::to_string(value);
  }
  out += "},";
  append_stats_map(out, "gauges", gauges);
  if (!gauge_hwm.empty()) {
    out += ",";
    append_stats_map(out, "gauge_hwm", gauge_hwm);
  }
  out += ",";
  append_stats_map(out, "histograms", histograms);
  out += "}";
  return out;
}

std::string RunReport::to_json() const {
  std::string out = "{\"aggregate\":" + aggregate_json();
  out += ",\"threads\":" + std::to_string(threads);
  out += ",\"wall_seconds\":" + json_num(wall_seconds);
  if (!rates.empty()) {
    out += ",\"rates\":{";
    bool first = true;
    for (const auto& [name, value] : rates) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      json::append_escaped(out, name);
      out += "\":" + json_num(value);
    }
    out += "}";
  }
  out += "}";
  return out;
}

const RunningStats* RunReport::find_sample(const std::string& name) const {
  const auto it = samples.find(name);
  return it == samples.end() ? nullptr : &it->second;
}

RunReport ExperimentRunner::run(std::size_t n_sessions, const Task& task) const {
  struct Outcome {
    bool ok = false;
    std::string error;
    std::vector<std::pair<std::string, double>> samples;
    MetricsRegistry metrics;
    // This task's flight-recorder and timeline accounting (zeros when off).
    RunReport::TraceSummary trace;
    RunReport::TimelineSummary timeline;
  };
  std::vector<Outcome> outcomes(n_sessions);

  const bool tracing = !config_.trace_dir.empty();
  const bool timelining = !config_.timeline_dir.empty();
  for (const std::string* dir : {&config_.trace_dir, &config_.timeline_dir}) {
    std::error_code ec;  // a directory that cannot be made shows as write_failures
    if (!dir->empty()) std::filesystem::create_directories(*dir, ec);
  }

  std::size_t threads = config_.threads != 0
                            ? config_.threads
                            : std::max(1u, std::thread::hardware_concurrency());
  if (n_sessions > 0) threads = std::min(threads, n_sessions);

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_sessions) return;
      SessionContext ctx;
      ctx.task_index = i;
      ctx.seed = config_.base_seed ^ static_cast<std::uint64_t>(i);
      std::unique_ptr<Tracer> tracer;
      if (tracing) {
        tracer = std::make_unique<Tracer>(config_.trace_capacity);
        ctx.tracer = tracer.get();
      }
      std::unique_ptr<MetricsTimeline> timeline;
      std::unique_ptr<health::HealthMonitor> monitor;
      if (timelining) {
        timeline = std::make_unique<MetricsTimeline>(
            MetricsTimeline::Config{config_.timeline_interval, config_.timeline_capacity});
        if (!config_.health_rules.empty()) {
          monitor = std::make_unique<health::HealthMonitor>();
          for (const health::SloRule& rule : config_.health_rules) monitor->add_rule(rule);
          // Binding resolves the per-rule breach counters now, so they exist
          // (at zero) from the first snapshot on — stable column sets.
          monitor->bind(&ctx.metrics, ctx.tracer);
          timeline->set_observer(monitor.get());
        }
        ctx.timeline = timeline.get();
        ctx.health = monitor.get();
      }
      Outcome& out = outcomes[i];
      try {
        task(ctx);
        out.ok = true;
      } catch (const std::exception& e) {
        out.error = e.what();
      } catch (...) {
        out.error = "unknown exception";
      }
      // Close open SLO breaches before ctx.metrics moves out from under the
      // monitor's counter pointers and the timeline's registry binding.
      if (timeline != nullptr) timeline->finalize();
      out.samples = std::move(ctx.samples);
      out.metrics = std::move(ctx.metrics);
      if (tracer != nullptr) {
        out.trace.records = tracer->size();
        out.trace.dropped = tracer->dropped();
        out.trace.spans = tracer->spans_recorded();
        out.trace.instants = tracer->instants_recorded();
        out.trace.counter_samples = tracer->counters_recorded();
        // One file per task index, written by whichever worker ran the task:
        // filenames and contents depend only on the task, never the thread.
        const std::string path =
            config_.trace_dir + "/" + std::to_string(i) + ".trace.json";
        out.trace.write_failures = write_text_file(path, tracer->to_chrome_json()) ? 0 : 1;
      }
      if (timeline != nullptr) {
        out.timeline.samples = timeline->total_samples();
        out.timeline.columns = timeline->column_count();
        out.timeline.dropped = timeline->dropped_samples();
        if (monitor != nullptr) {
          out.timeline.health_rules = monitor->rules().size();
          out.timeline.health_events = monitor->events().size();
          out.timeline.health_breaches = monitor->total_breaches();
        }
        // The "health" section appears only when the monitor has rules: a
        // monitor armed with zero rules leaves the file byte-identical to an
        // unmonitored run.
        std::string doc = "{\"timeline\":" + timeline->to_json();
        if (monitor != nullptr && !monitor->empty()) doc += ",\"health\":" + monitor->to_json();
        doc += "}\n";
        const std::string path =
            config_.timeline_dir + "/" + std::to_string(i) + ".timeline.json";
        out.timeline.write_failures = write_text_file(path, doc) ? 0 : 1;
      }
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Reduce strictly in task-index order: with per-task results fixed, the
  // merge sequence (and hence every floating-point aggregate) is independent
  // of how tasks were scheduled across threads.
  RunReport report;
  report.label = config_.label;
  report.base_seed = config_.base_seed;
  report.sessions = n_sessions;
  report.threads = threads;
  report.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  report.trace.enabled = tracing;
  report.timeline.enabled = timelining;
  for (std::size_t i = 0; i < n_sessions; ++i) {
    const Outcome& out = outcomes[i];
    add_counts(report.trace, out.trace);
    add_counts(report.timeline, out.timeline);
    if (!out.ok) {
      report.failures.emplace_back(i, out.error);
      continue;
    }
    for (const auto& [name, value] : out.samples) report.samples[name].add(value);
    for (const auto& [name, counter] : out.metrics.counters()) {
      report.counters[name] += counter.value();
    }
    for (const auto& [name, gauge] : out.metrics.gauges()) {
      report.gauges[name].add(gauge.value());
      report.gauge_hwm[name].add(gauge.max());
    }
    for (const auto& [name, histo] : out.metrics.histograms()) {
      report.histograms[name].merge(histo.stats());
    }
  }
  for (const std::string& name : config_.rate_counters) {
    const auto it = report.counters.find(name);
    const double total = it == report.counters.end() ? 0.0 : static_cast<double>(it->second);
    report.rates[name + "_per_sec"] =
        report.wall_seconds > 0.0 ? total / report.wall_seconds : 0.0;
  }
  return report;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary};
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

bool read_text_file(const std::string& path, std::string* out) {
  // An ifstream opens a directory and reads it as empty.
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) return false;
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace vc::runner
