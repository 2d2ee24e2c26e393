// Determinism contract of the flight recorder (DESIGN.md §6): a traced
// runner sweep must emit byte-identical per-task trace files and run reports
// at every runner thread count. Also schema-checks the emitted file as Chrome
// trace-event JSON.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/lag_benchmark.h"
#include "runner/experiment_runner.h"

namespace vc {
namespace {

constexpr std::size_t kTasks = 2;
constexpr std::size_t kTraceCapacity = 4096;

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct TracedRun {
  std::string aggregate_json;
  std::vector<std::string> trace_files;  // one per task, bytes
};

// A short two-participant lag run per task, flight-recorded end to end
// (event loop, links/shapers, relays, codecs, RTT probers).
TracedRun run_traced(std::size_t threads, const std::string& tag) {
  const std::string dir = testing::TempDir() + "vc_trace_" + tag;
  runner::ExperimentRunner::Config rc;
  rc.threads = threads;
  rc.base_seed = 7;
  rc.label = "trace-determinism";
  rc.trace_dir = dir;
  rc.trace_capacity = kTraceCapacity;
  const auto report =
      runner::ExperimentRunner{rc}.run(kTasks, [](runner::SessionContext& ctx) {
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
      });
  EXPECT_TRUE(report.failures.empty());
  EXPECT_TRUE(report.trace.enabled);
  EXPECT_GT(report.trace.records, 0u);
  EXPECT_EQ(report.trace.write_failures, 0u);
  TracedRun out;
  out.aggregate_json = report.aggregate_json();
  for (std::size_t i = 0; i < kTasks; ++i) {
    out.trace_files.push_back(slurp(dir + "/" + std::to_string(i) + ".trace.json"));
    EXPECT_FALSE(out.trace_files.back().empty()) << "missing trace file for task " << i;
  }
  return out;
}

TEST(TraceDeterminism, TraceFilesAndReportsIdenticalAcrossThreads) {
  const TracedRun base = run_traced(1, "t1");
  ASSERT_EQ(base.trace_files.size(), kTasks);

  const TracedRun other = run_traced(8, "t8");
  EXPECT_EQ(other.aggregate_json, base.aggregate_json) << "report drifted at threads=8";
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(other.trace_files[i], base.trace_files[i])
        << "trace file " << i << " drifted at threads=8";
  }

  // The report's trace summary block participates in aggregate_json (and thus
  // in the identity assertions above); spot-check it is actually there.
  EXPECT_NE(base.aggregate_json.find("\"trace\":{\"records\":"), std::string::npos);
}

TEST(TraceDeterminism, EmittedTraceIsValidChromeTraceEventJson) {
  const TracedRun run = run_traced(1, "schema");
  const json::Value root = json::parse(run.trace_files.front());

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
