// The shared bench harness: run_checked()/finish() must turn any 1-vs-8-thread
// byte mismatch (aggregates or per-task trace files) or any task failure
// into exit 1; invisibility_gate() must return 1 on a visible armed side and
// 3 on a slow one, and run the rounds it is given. The flag reader's cases
// are in tests/common/test_flags.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench/bench_util.h"

namespace {

using vc::runner::ExperimentRunner;
using vc::runner::SessionContext;

/// Fresh scratch directory under the system temp dir, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
};

ExperimentRunner::Config config(std::uint64_t seed) {
  ExperimentRunner::Config rc;
  rc.base_seed = seed;
  rc.label = "harness_test";
  return rc;
}

/// Tasks run on the calling thread only in the 1-thread pass.
bool on_thread(std::thread::id id) { return std::this_thread::get_id() == id; }

TEST(RunChecked, DeterministicTasksPassAndWriteTheReport) {
  ScratchDir dir{"vcb_run_checked_ok"};
  const auto run = vcb::run_checked(config(7), 6, [](SessionContext& ctx) {
    ctx.sample("value", static_cast<double>(ctx.seed % 97));
  });
  EXPECT_TRUE(run.ok());
  EXPECT_EQ(run.serial.threads, 1u);
  EXPECT_EQ(run.report.threads, 6u);  // 8 requested, capped at the task count
  EXPECT_EQ(run.finish(dir.file("ok.report.json")), 0);
  std::string json;
  ASSERT_TRUE(vc::runner::read_text_file(dir.file("ok.report.json"), &json));
  EXPECT_EQ(json, run.report.to_json());
}

TEST(RunChecked, ThreadDependentSamplesExitOne) {
  ScratchDir dir{"vcb_run_checked_threads"};
  const auto caller = std::this_thread::get_id();
  const auto run = vcb::run_checked(config(7), 4, [caller](SessionContext& ctx) {
    ctx.sample("on_caller", on_thread(caller) ? 1.0 : 0.0);
  });
  EXPECT_FALSE(run.identical());
  EXPECT_EQ(run.finish(dir.file("threads.report.json")), 1);
}

TEST(RunChecked, OneThrowingTaskExitsOneEvenWhenBothPassesAgree) {
  ScratchDir dir{"vcb_run_checked_throw"};
  const auto run = vcb::run_checked(config(7), 4, [](SessionContext& ctx) {
    if (ctx.task_index == 2) throw std::runtime_error("boom");
    ctx.sample("value", 1.0);
  });
  // Both passes fail the same task, so the aggregates still agree...
  EXPECT_TRUE(run.identical());
  ASSERT_EQ(run.report.failures.size(), 1u);
  // ...but a failed task is never a passing run.
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.finish(dir.file("throw.report.json")), 1);
}

TEST(RunChecked, PerTaskTraceFileMismatchExitsOne) {
  ScratchDir dir{"vcb_run_checked_trace"};
  auto rc = config(7);
  rc.trace_dir = dir.file("traces");
  const auto caller = std::this_thread::get_id();
  const auto run = vcb::run_checked(rc, 3, [caller](SessionContext& ctx) {
    // Same record count either way (the aggregate's trace block matches);
    // only the recorded value depends on the thread.
    ctx.tracer->instant("probe", vc::SimTime::zero(), on_thread(caller) ? 1.0 : 2.0);
    ctx.sample("value", 1.0);
  });
  EXPECT_EQ(run.serial.aggregate_json(), run.report.aggregate_json());
  EXPECT_TRUE(std::filesystem::exists(dir.file("traces/t1/0.trace.json")));
  EXPECT_TRUE(std::filesystem::exists(dir.file("traces/t8/0.trace.json")));
  ASSERT_TRUE(run.trace_mismatches.has_value());
  EXPECT_EQ(*run.trace_mismatches, 3u);
  EXPECT_FALSE(run.timeline_mismatches.has_value());
  EXPECT_EQ(run.finish(dir.file("trace.report.json")), 1);
}

TEST(RunChecked, IdenticalTraceFilesPass) {
  ScratchDir dir{"vcb_run_checked_trace_ok"};
  auto rc = config(7);
  rc.trace_dir = dir.file("traces");
  const auto run = vcb::run_checked(rc, 3, [](SessionContext& ctx) {
    ctx.tracer->instant("probe", vc::SimTime::zero(), static_cast<double>(ctx.task_index));
  });
  ASSERT_TRUE(run.trace_mismatches.has_value());
  EXPECT_EQ(*run.trace_mismatches, 0u);
  EXPECT_EQ(run.finish(dir.file("trace_ok.report.json")), 0);
}

ExperimentRunner::Task gate_task(bool armed, bool visible, bool slow) {
  return [armed, visible, slow](SessionContext& ctx) {
    if (armed && slow) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ctx.sample("value", armed && visible ? 2.0 : 1.0);
  };
}

TEST(InvisibilityGate, InvisibleArmedSideWritesTheSharedSchema) {
  ScratchDir dir{"vcb_gate_ok"};
  const std::string out = dir.file("gate.json");
  const int code = vcb::invisibility_gate(
      "harness_gate", [](bool armed) { return gate_task(armed, false, false); }, 2, 9, 3,
      0.0).finish(out);
  EXPECT_EQ(code, 0);
  std::string json;
  ASSERT_TRUE(vc::runner::read_text_file(out, &json));
  for (const char* key : {"\"benchmark\": \"harness_gate\"", "\"rounds\": 3",
                          "\"best_off_seconds\"", "\"best_armed_seconds\"", "\"speed_ratio\"",
                          "\"gate\": 0.00", "\"aggregates_byte_identical\": true"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(InvisibilityGate, VisibleArmedSideExitsOne) {
  ScratchDir dir{"vcb_gate_visible"};
  const int code = vcb::invisibility_gate(
      "harness_gate", [](bool armed) { return gate_task(armed, true, false); }, 2, 9, 3,
      0.0).finish(dir.file("gate.json"));
  EXPECT_EQ(code, 1);
  EXPECT_FALSE(std::filesystem::exists(dir.file("gate.json")));
}

TEST(InvisibilityGate, ThrowingTaskExitsOne) {
  ScratchDir dir{"vcb_gate_throw"};
  const int code = vcb::invisibility_gate(
      "harness_gate",
      [](bool) -> ExperimentRunner::Task {
        return [](SessionContext&) { throw std::runtime_error("boom"); };
      },
      2, 9, 3, 0.0).finish(dir.file("gate.json"));
  EXPECT_EQ(code, 1);
}

TEST(InvisibilityGate, SlowArmedSideExitsThree) {
  ScratchDir dir{"vcb_gate_slow"};
  const int code = vcb::invisibility_gate(
      "harness_gate", [](bool armed) { return gate_task(armed, false, true); }, 2, 9, 3,
      0.98).finish(dir.file("gate.json"));
  EXPECT_EQ(code, 3);
  EXPECT_TRUE(std::filesystem::exists(dir.file("gate.json")));
}

TEST(InvisibilityGate, RunsExactlyTheRoundsGiven) {
  // The count a gate reports is the count it runs: one off and one armed
  // pass per round, never silently raised (the benches' --rounds flags
  // carry the minimum).
  ScratchDir dir{"vcb_gate_rounds"};
  const std::string out = dir.file("gate.json");
  int off_passes = 0, armed_passes = 0;
  const int code = vcb::invisibility_gate(
      "harness_gate",
      [&](bool armed) {
        ++(armed ? armed_passes : off_passes);
        return gate_task(armed, false, false);
      },
      2, 9, 1, 0.0).finish(out);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(off_passes, 1);
  EXPECT_EQ(armed_passes, 1);
  std::string json;
  ASSERT_TRUE(vc::runner::read_text_file(out, &json));
  EXPECT_NE(json.find("\"rounds\": 1"), std::string::npos) << json;
}

}  // namespace
