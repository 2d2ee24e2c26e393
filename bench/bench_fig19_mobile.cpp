// Fig 19: mobile resource consumption — CPU usage (a), download data rate
// (b), and battery drain (c) for the S10 and J3 across the five device/UI
// scenarios (LM, HM, LM-View, LM-Video-View, LM-Off).
//
// Paper anchors (Finding 5): videoconferencing needs 2-3 full cores; Meet is
// the most bandwidth-hungry (~1 GB/hour ≈ 2.2 Mbps) vs Zoom's gallery view
// at ~175 MB/hour (~0.4 Mbps); one hour drains up to ~40% of the J3's
// battery, halved by going audio-only.
//
// The sweep runs on runner::ExperimentRunner: every (platform, scenario,
// repetition) cell is an independent session (core::run_mobile_session),
// executed once on one thread and once on eight; the two aggregate reports
// must be bit-identical. CPU cells show mean±sd of the pooled per-second
// samples (the runner aggregates streaming moments, not raw quartiles).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/mobile_benchmark.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

struct Cell {
  platform::PlatformId id{};
  mobile::MobileScenario scenario{};
  std::uint64_t platform_seed = 0;  // the pre-runner sweep's 801 + id*41 stream
  std::string key;                  // e.g. "Zoom/HM"
};

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Fig 19 — mobile CPU / data rate / battery (S10 & J3)", paper);

  const mobile::MobileScenario scenarios[] = {
      mobile::MobileScenario::kLM, mobile::MobileScenario::kHM, mobile::MobileScenario::kLMView,
      mobile::MobileScenario::kLMVideoView, mobile::MobileScenario::kLMOff};
  const int reps = paper ? 5 : 2;
  const SimDuration duration = paper ? seconds(300) : seconds(45);

  std::vector<Cell> cells;
  for (const auto id : vcb::all_platforms()) {
    for (const auto scenario : scenarios) {
      Cell c;
      c.id = id;
      c.scenario = scenario;
      c.platform_seed = 801 + static_cast<std::uint64_t>(id) * 41;
      c.key = std::string(platform_name(id)) + "/" + std::string(scenario_name(scenario));
      for (int rep = 0; rep < reps; ++rep) cells.push_back(c);
    }
  }

  const auto task = [&cells, duration](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index];
    core::MobileBenchmarkConfig cfg;
    cfg.platform = c.id;
    cfg.scenario = c.scenario;
    cfg.duration = duration;
    const auto r = core::run_mobile_session(cfg, ctx.seed ^ c.platform_seed);
    for (double v : r.s10_cpu) ctx.sample(c.key + ".s10_cpu", v);
    for (double v : r.j3_cpu) ctx.sample(c.key + ".j3_cpu", v);
    ctx.sample(c.key + ".s10_download_kbps", r.s10_download_kbps);
    ctx.sample(c.key + ".j3_download_kbps", r.j3_download_kbps);
    ctx.sample(c.key + ".j3_battery_pct_per_hour", r.j3_battery_pct_per_hour);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 801;
  rc.label = "fig19_mobile";
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;

  TextTable table{{"platform", "scenario", "S10 CPU mean±sd (%)", "J3 CPU mean±sd (%)",
                   "S10 down (Kbps)", "J3 down (Kbps)", "J3 battery (%/h)", "MB/hour (J3)"}};
  auto cpu_cell = [&report](const std::string& key) {
    const auto* s = report.find_sample(key);
    if (!s) return std::string{"-"};
    return TextTable::num(s->mean(), 0) + "±" + TextTable::num(s->stddev(), 0);
  };
  auto mean_of = [&report](const std::string& key) {
    const auto* s = report.find_sample(key);
    return s ? s->mean() : 0.0;
  };
  for (const auto id : vcb::all_platforms()) {
    for (const auto scenario : scenarios) {
      const std::string k =
          std::string(platform_name(id)) + "/" + std::string(scenario_name(scenario));
      const double j3_down = mean_of(k + ".j3_download_kbps");
      table.add_row({std::string(platform_name(id)), std::string(scenario_name(scenario)),
                     cpu_cell(k + ".s10_cpu"), cpu_cell(k + ".j3_cpu"),
                     TextTable::num(mean_of(k + ".s10_download_kbps"), 0),
                     TextTable::num(j3_down, 0),
                     TextTable::num(mean_of(k + ".j3_battery_pct_per_hour"), 1),
                     TextTable::num(j3_down * 3600.0 / 8.0 / 1000.0, 0)});
    }
  }
  std::printf("%s\n", table.render().c_str());

  return run.finish("bench_fig19_mobile.report.json");
}
