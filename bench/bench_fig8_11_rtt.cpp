// Figs 8–11: service proximity — RTTs measured by each client against its
// discovered service endpoint, per scenario (host in US-East, US-West, UK,
// Switzerland).
//
// Paper anchors: Zoom/Webex US-East-hosted sessions give US-East clients
// single-digit RTTs and US-West clients ~60-70 ms; Meet RTTs are uniformly
// low (distributed endpoints); Zoom's Europe RTTs split into three bands
// ~20/40 ms apart (regional load balancing); Webex's stay trans-Atlantic.
//
// Each (figure, platform) pair is one task on the parallel experiment
// runner; a task runs its whole multi-session lag benchmark (VMs persist
// across that config's sessions for Meet's endpoint stickiness) and samples
// every per-session mean probe RTT into the run report, so the table shows
// each participant's RTT spread across sessions. The run executes at 1
// thread and at 8; the aggregates must be bit-identical.
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
    {"Fig 8", "US-East", false},
    {"Fig 9", "US-West", false},
    {"Fig 10", "UK-West", true},
    {"Fig 11", "CH", true},
};

struct Point {
  const Scenario* scenario = nullptr;
  platform::PlatformId id{};
  std::string key;  // e.g. "Fig 8/Zoom"
};

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
  vcb::banner("Figs 8-11 — service proximity (RTT to discovered endpoints)", paper);

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
      for (const double rtt : part.session_rtt_ms) ctx.sample(base + ".rtt_ms", rtt);
      ctx.sample(base + ".endpoints", static_cast<double>(part.distinct_endpoints));
    }
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 11;
  rc.label = "fig8_11_rtt";
  const auto run = vcb::run_checked(rc, points.size(), task);
  const auto& report = run.report;

  for (const auto& sc : kScenarios) {
    std::printf("--- %s: meeting host in %s ---\n", sc.figure, sc.host);
    TextTable table{{"platform", "participant", "sessions", "mean RTT (ms)", "min/max (ms)"}};
    const auto labels = core::participant_labels(participant_sites(sc));
    for (const auto id : vcb::all_platforms()) {
      for (const auto& label : labels) {
        const std::string base =
            std::string(sc.figure) + "/" + std::string(platform_name(id)) + "/" + label;
        const auto* endpoints = report.find_sample(base + ".endpoints");
        if (endpoints == nullptr) continue;  // task failed; listed below
        const auto* rtt = report.find_sample(base + ".rtt_ms");
        table.add_row({std::string(platform_name(id)), label,
                       std::to_string(rtt != nullptr ? rtt->count() : 0),
                       rtt != nullptr ? TextTable::num(rtt->mean(), 1) : "-",
                       rtt != nullptr ? TextTable::num(rtt->min(), 1) + " / " +
                                            TextTable::num(rtt->max(), 1)
                                      : "-"});
      }
    }
    std::printf("%s\n", table.render().c_str());
  }

  return run.finish("bench_fig8_11_rtt.report.json");
}
