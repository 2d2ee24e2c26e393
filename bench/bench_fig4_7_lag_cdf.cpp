// Figs 4–7: CDFs of streaming lag for four scenarios — meeting host in
// US-East (Fig 4), US-West (Fig 5), UK (Fig 6) and Switzerland (Fig 7) —
// across Zoom, Webex and Meet.
//
// Paper anchors (Findings 1–2): US lags 20–50 ms (Zoom), 10–70 ms (Webex),
// 40–70 ms (Meet); Europe lags 90–150 ms (Zoom), 75–90 ms (Webex),
// 30–40 ms (Meet).
//
// Each (figure, platform) pair is one task on the parallel experiment
// runner; a task runs its whole multi-session lag benchmark (the VMs must
// persist across that config's sessions for Meet's endpoint stickiness) and
// samples per-participant lag percentiles into the run report. The run
// executes at 1 thread and at 8; the aggregates must be bit-identical.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/lag_benchmark.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

struct Scenario {
  const char* figure;
  const char* host;
  bool europe;
};

constexpr Scenario kScenarios[] = {
    {"Fig 4", "US-East", false},
    {"Fig 5", "US-West", false},
    {"Fig 6", "UK-West", true},
    {"Fig 7", "CH", true},
};

struct Point {
  const Scenario* scenario = nullptr;
  platform::PlatformId id{};
  std::string key;  // e.g. "Fig 4/Zoom"
};

/// The suffixes vcb::sample_quantiles writes, in its order.
constexpr const char* kQuantileNames[] = {"p10", "p25", "p50", "p75", "p90"};

/// The six participant sites of a scenario's lag run.
std::vector<std::string> participant_sites(const Scenario& sc) {
  return sc.europe ? core::europe_participant_sites(sc.host)
                   : core::us_participant_sites(sc.host);
}

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Figs 4-7 — CDFs of streaming lag (percentile summaries)", paper);

  std::vector<Point> points;
  for (const auto& sc : kScenarios) {
    for (const auto id : vcb::all_platforms()) {
      points.push_back(
          Point{&sc, id, std::string(sc.figure) + "/" + std::string(platform_name(id))});
    }
  }

  const auto task = [&points, paper](runner::SessionContext& ctx) {
    const Point& p = points[ctx.task_index];
    core::LagBenchmarkConfig cfg;
    cfg.platform = p.id;
    cfg.host_site = p.scenario->host;
    cfg.participant_sites = participant_sites(*p.scenario);
    cfg.sessions = paper ? 20 : 6;
    cfg.session_duration = paper ? seconds(120) : seconds(40);
    cfg.seed = ctx.seed;
    cfg.metrics = &ctx.metrics;
    const auto result = core::run_lag_benchmark(cfg);
    for (const auto& part : result.participants) {
      const std::string base = p.key + "/" + part.label;
      vcb::sample_quantiles(ctx, base, part.lags_ms);
      ctx.sample(base + ".lag_samples", static_cast<double>(part.lags_ms.size()));
    }
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 7;
  rc.label = "fig4_7_lag_cdf";
  const auto run = vcb::run_checked(rc, points.size(), task);
  const auto& report = run.report;

  for (const auto& sc : kScenarios) {
    std::printf("--- %s: meeting host in %s ---\n", sc.figure, sc.host);
    TextTable table{{"platform", "participant", "p10/p25/p50/p75/p90 lag (ms)", "samples"}};
    const auto labels = core::participant_labels(participant_sites(sc));
    for (const auto id : vcb::all_platforms()) {
      for (const auto& label : labels) {
        const std::string base =
            std::string(sc.figure) + "/" + std::string(platform_name(id)) + "/" + label;
        const auto* count = report.find_sample(base + ".lag_samples");
        if (count == nullptr) continue;  // task failed; listed below
        std::string row;
        for (std::size_t q = 0; q < std::size(kQuantileNames); ++q) {
          const auto* v = report.find_sample(base + "." + kQuantileNames[q]);
          row += TextTable::num(v != nullptr ? v->mean() : 0.0, 1);
          if (q + 1 < std::size(kQuantileNames)) row += "/";
        }
        table.add_row({std::string(platform_name(id)), label, row,
                       std::to_string(static_cast<std::int64_t>(count->mean()))});
      }
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf(
      "expected shapes: lag grows with distance from the host-side relay (Zoom/Webex);\n"
      "Webex relays everything via US-East (west-coast sessions detour); Meet is uniform\n"
      "and lowest in Europe thanks to its distributed endpoints, but highest in the US.\n\n");

  return run.finish("bench_fig4_7_lag_cdf.report.json");
}
