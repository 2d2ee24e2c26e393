// Determinism contract of the flight recorder (DESIGN.md §6): a traced
// runner sweep must emit byte-identical per-task trace files and run reports
// at every runner thread count. Also schema-checks the emitted file as Chrome
// trace-event JSON.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "bench/bench_util.h"
#include "common/json.h"
#include "core/lag_benchmark.h"
#include "runner/experiment_runner.h"

namespace vc {
namespace {

constexpr std::size_t kTasks = 2;
constexpr std::size_t kTraceCapacity = 4096;

runner::ExperimentRunner::Config traced_config(const std::string& tag) {
  runner::ExperimentRunner::Config rc;
  rc.base_seed = 7;
  rc.label = "trace-determinism";
  rc.trace_dir = testing::TempDir() + "vc_trace_" + tag;
  rc.trace_capacity = kTraceCapacity;
  return rc;
}

// A short two-participant lag run per task, flight-recorded end to end
// (event loop, links/shapers, relays, codecs, RTT probers).
void lag_task(runner::SessionContext& ctx) {
  core::LagBenchmarkConfig cfg;
  cfg.platform = platform::PlatformId::kZoom;
  cfg.host_site = "US-East";
  cfg.participant_sites = {"US-West", "US-Central"};
  cfg.sessions = 1;
  cfg.session_duration = seconds(24);
  cfg.seed = ctx.seed;
  cfg.metrics = &ctx.metrics;
  cfg.tracer = ctx.tracer;
  const auto r = core::run_lag_benchmark(cfg);
  ctx.sample("mean_distinct_endpoints", r.mean_distinct_endpoints);
}

TEST(TraceDeterminism, TraceFilesAndReportsIdenticalAcrossThreads) {
  const runner::ExperimentRunner::Config rc = traced_config("identity");
  const vcb::CheckedRun run = vcb::run_checked(rc, kTasks, lag_task);
  // Aggregates and every per-task trace file byte-identical, no task failed.
  ASSERT_TRUE(run.ok());
  for (const runner::RunReport* report : {&run.serial, &run.report}) {
    EXPECT_TRUE(report->trace.enabled);
    EXPECT_GT(report->trace.records, 0u);
    EXPECT_EQ(report->trace.write_failures, 0u);
  }
  for (std::size_t i = 0; i < kTasks; ++i) {
    std::string trace;
    ASSERT_TRUE(
        runner::read_text_file(rc.trace_dir + "/t1/" + std::to_string(i) + ".trace.json", &trace));
    EXPECT_FALSE(trace.empty()) << "empty trace file for task " << i;
  }

  // The report's trace summary block participates in aggregate_json (and thus
  // in the identity check above); spot-check it is actually there.
  EXPECT_NE(run.serial.aggregate_json().find("\"trace\":{\"records\":"), std::string::npos);
}

TEST(TraceDeterminism, EmittedTraceIsValidChromeTraceEventJson) {
  runner::ExperimentRunner::Config rc = traced_config("schema");
  rc.threads = 1;
  const auto report = runner::ExperimentRunner{rc}.run(1, lag_task);
  ASSERT_TRUE(report.failures.empty());
  std::string trace;
  ASSERT_TRUE(runner::read_text_file(rc.trace_dir + "/0.trace.json", &trace));
  const json::Value root = json::parse(trace);

  const json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array_items.empty());
  for (const auto& ev : events->array_items) {
    ASSERT_TRUE(ev.is_object());
    const json::Value* name = ev.find("name");
    const json::Value* ph = ev.find("ph");
    const json::Value* ts = ev.find("ts");
    ASSERT_NE(name, nullptr);
    ASSERT_TRUE(name->is_string());
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ts->is_number());
    if (ph->string_value == "X") {
      const json::Value* dur = ev.find("dur");
      ASSERT_NE(dur, nullptr);
      ASSERT_TRUE(dur->is_number());
      EXPECT_GE(dur->number_value, 0.0);
    } else {
      ASSERT_TRUE(ph->string_value == "i" || ph->string_value == "C")
          << "unexpected phase " << ph->string_value;
    }
  }
  const json::Value* other = root.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other->find("dropped_records"), nullptr);

  // The full-stack instrumentation actually fired: the flight recorder's
  // latest window should contain records from the core instrument families.
  std::string all_names;
  for (const auto& ev : events->array_items) {
    all_names += ev.at("name").string_value;
    all_names += '\n';
  }
  EXPECT_NE(all_names.find("loop.exec"), std::string::npos);
  EXPECT_NE(all_names.find("net.link."), std::string::npos);
}

}  // namespace
}  // namespace vc
