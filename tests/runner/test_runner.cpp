#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/mobile_benchmark.h"
#include "runner/experiment_runner.h"

namespace vc::runner {
namespace {

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("pkts").inc();
  reg.counter("pkts").add(4);
  reg.gauge("backlog").set(7.5);
  reg.histogram("delay").observe(1.0);
  reg.histogram("delay").observe(3.0);

  EXPECT_EQ(reg.counter("pkts").value(), 5);
  EXPECT_DOUBLE_EQ(reg.gauge("backlog").value(), 7.5);
  EXPECT_EQ(reg.histogram("delay").stats().count(), 2u);
  EXPECT_DOUBLE_EQ(reg.histogram("delay").stats().mean(), 2.0);
  EXPECT_FALSE(reg.empty());
}

TEST(MetricsRegistry, ReferencesStayValidAcrossInsertions) {
  MetricsRegistry reg;
  auto& first = reg.counter("a");
  for (int i = 0; i < 100; ++i) reg.counter("name" + std::to_string(i));
  first.inc();
  EXPECT_EQ(reg.counter("a").value(), 1);
}

TEST(ExperimentRunner, SeedsArePerTaskStreams) {
  ExperimentRunner::Config cfg;
  cfg.threads = 1;
  cfg.base_seed = 0xABCD;
  const auto report = ExperimentRunner{cfg}.run(4, [](SessionContext& ctx) {
    EXPECT_EQ(ctx.seed, 0xABCDull ^ ctx.task_index);
    ctx.sample("seed_lo", static_cast<double>(ctx.seed & 0xF));
  });
  EXPECT_EQ(report.sessions, 4u);
  EXPECT_EQ(report.samples.at("seed_lo").count(), 4u);
}

TEST(ExperimentRunner, AggregatesMergeAcrossSessions) {
  ExperimentRunner::Config cfg;
  cfg.threads = 2;
  const auto report = ExperimentRunner{cfg}.run(8, [](SessionContext& ctx) {
    ctx.sample("value", static_cast<double>(ctx.task_index));
    ctx.metrics.counter("events").add(10);
    ctx.metrics.gauge("level").set(static_cast<double>(ctx.task_index) * 2.0);
    ctx.metrics.histogram("obs").observe(1.0);
  });
  EXPECT_EQ(report.samples.at("value").count(), 8u);
  EXPECT_DOUBLE_EQ(report.samples.at("value").mean(), 3.5);
  EXPECT_EQ(report.counters.at("events"), 80);
  EXPECT_DOUBLE_EQ(report.gauges.at("level").max(), 14.0);
  EXPECT_EQ(report.histograms.at("obs").count(), 8u);
}

TEST(ExperimentRunner, FailedTasksAreReportedAndExcluded) {
  ExperimentRunner::Config cfg;
  cfg.threads = 2;
  const auto report = ExperimentRunner{cfg}.run(6, [](SessionContext& ctx) {
    if (ctx.task_index % 3 == 1) throw std::runtime_error{"boom"};
    ctx.sample("ok", 1.0);
  });
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_EQ(report.failures[0].first, 1u);
  EXPECT_EQ(report.failures[1].first, 4u);
  EXPECT_EQ(report.failures[0].second, "boom");
  EXPECT_EQ(report.samples.at("ok").count(), 4u);
}

// The heart of the runner's contract: floating-point aggregates come out
// bit-identical regardless of how many threads executed the tasks, because
// per-task results are deterministic and the reduction happens in task-index
// order. The task mixes wildly different magnitudes so that any
// order-dependent summation would perturb low-order bits.
TEST(ExperimentRunner, AggregateJsonIsThreadCountInvariant) {
  const auto task = [](SessionContext& ctx) {
    Rng rng{ctx.seed};
    RunningStats local;
    for (int i = 0; i < 1000; ++i) local.add(rng.lognormal(0.0, 4.0));
    ctx.sample("lognormal_mean", local.mean());
    ctx.sample("lognormal_max", local.max());
    ctx.metrics.histogram("draws").observe(local.sum());
    ctx.metrics.counter("n").add(1000);
  };
  std::string baseline;
  for (const std::size_t threads : {1, 2, 8}) {
    ExperimentRunner::Config cfg;
    cfg.threads = threads;
    cfg.base_seed = 77;
    cfg.label = "determinism";
    const auto report = ExperimentRunner{cfg}.run(16, task);
    if (baseline.empty()) {
      baseline = report.aggregate_json();
    } else {
      EXPECT_EQ(report.aggregate_json(), baseline) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(baseline.empty());
}

// Same invariant exercised end-to-end through real simulated sessions (the
// Table 4 scale scenario, shrunk): each task builds its own testbed, network
// and platform world from its per-task seed.
TEST(ExperimentRunner, SimSessionAggregatesAreThreadCountInvariant) {
  const auto task = [](SessionContext& ctx) {
    core::ScaleBenchmarkConfig cfg;
    cfg.platform = platform::PlatformId::kZoom;
    cfg.n_total = 3;
    cfg.duration = seconds(4);
    const auto s = core::run_scale_session(cfg, ctx.seed);
    ctx.sample("s10_rate_mbps", s.s10_rate_mbps);
    ctx.sample("j3_rate_mbps", s.j3_rate_mbps);
  };
  std::string baseline;
  for (const std::size_t threads : {1, 2, 8}) {
    ExperimentRunner::Config cfg;
    cfg.threads = threads;
    cfg.base_seed = 901;
    cfg.label = "table4-mini";
    const auto report = ExperimentRunner{cfg}.run(4, task);
    EXPECT_TRUE(report.failures.empty());
    if (baseline.empty()) {
      baseline = report.aggregate_json();
    } else {
      EXPECT_EQ(report.aggregate_json(), baseline) << "threads=" << threads;
    }
  }
  EXPECT_NE(baseline.find("s10_rate_mbps"), std::string::npos);
}

TEST(RunReport, JsonShapes) {
  ExperimentRunner::Config cfg;
  cfg.threads = 1;
  cfg.label = "shape";
  const auto report = ExperimentRunner{cfg}.run(2, [](SessionContext& ctx) {
    ctx.sample("x", 1.0 + static_cast<double>(ctx.task_index));
    ctx.metrics.counter("c").inc();
  });
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"label\":\"shape\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"c\":2"), std::string::npos);
  // Timing/thread metadata must stay out of the comparable aggregate.
  EXPECT_EQ(report.aggregate_json().find("wall_seconds"), std::string::npos);

  ASSERT_NE(report.find_sample("x"), nullptr);
  EXPECT_DOUBLE_EQ(report.find_sample("x")->mean(), 1.5);
  EXPECT_EQ(report.find_sample("missing"), nullptr);
}

TEST(RunReport, JsonEscapesErrorsAndRateKeys) {
  ExperimentRunner::Config cfg;
  cfg.threads = 1;
  cfg.rate_counters = {"odd\"name"};
  const auto report = ExperimentRunner{cfg}.run(2, [](SessionContext& ctx) {
    ctx.metrics.counter("odd\"name").inc();
    if (ctx.task_index == 1) throw std::runtime_error{"bad\tvalue"};
  });
  const std::string text = report.to_json();
  // RFC 8259: control characters inside a string must be escaped.
  EXPECT_EQ(std::count_if(text.begin(), text.end(),
                          [](char c) { return static_cast<unsigned char>(c) < 0x20; }),
            0)
      << text;
  const json::Value doc = json::parse(text);
  EXPECT_EQ(doc.at("aggregate").at("failures").array_items.at(0).at("error").as_string(),
            "bad\tvalue");
  EXPECT_EQ(doc.at("aggregate").at("counters").at("odd\"name").as_number(), 1.0);
  EXPECT_NE(doc.at("rates").find("odd\"name_per_sec"), nullptr);
}

TEST(TextFile, MissingFileReadsFalse) {
  std::string text = "untouched";
  EXPECT_FALSE(read_text_file(testing::TempDir() + "vc_no_such_dir/none.json", &text));
  EXPECT_EQ(text, "untouched");
}

TEST(TextFile, DirectoryReadsFalse) {
  std::string text = "untouched";
  EXPECT_FALSE(read_text_file(testing::TempDir(), &text));
  EXPECT_EQ(text, "untouched");
}

TEST(TextFile, RoundTripsEveryByte) {
  const std::string path = testing::TempDir() + "vc_text_file_roundtrip.bin";
  const std::string bytes("a\0b\r\nc\n\xff", 8);
  ASSERT_TRUE(write_text_file(path, bytes));
  std::string back;
  ASSERT_TRUE(read_text_file(path, &back));
  EXPECT_EQ(back, bytes);
}

}  // namespace
}  // namespace vc::runner
