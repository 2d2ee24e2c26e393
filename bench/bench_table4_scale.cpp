// Table 4: data rate and CPU usage with varying videoconference sizes
// (N = 3, 6, 11; everyone streaming high-motion), phones in full-screen and
// gallery view.
//
// Paper anchors: Zoom full-screen is nearly flat in N (small buffering
// bump); gallery doubles 3→6 then plateaus (≤4 tiles); Webex gallery rate
// *decreases* with more participants; Meet grows ~10% via its always-on
// previews and caps at four visible streams.
//
// The sweep runs on runner::ExperimentRunner: every (platform, N, view,
// repetition) cell is an independent session task, executed once on one
// thread and once on eight. The two aggregate reports must be bit-identical
// (the runner's determinism contract); the wall-clock ratio is the measured
// parallel speedup on this machine.
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
  int n = 0;
  platform::ViewMode view{};
  std::string key;  // e.g. "Zoom/n3/full"
};

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Table 4 — data rate and CPU vs videoconference size (S10/J3)", paper);

  const int reps = paper ? 5 : 1;
  const SimDuration duration = paper ? seconds(300) : seconds(40);

  std::vector<Cell> cells;
  for (const int n : {3, 6, 11}) {
    for (const auto id : vcb::all_platforms()) {
      for (const auto view : {platform::ViewMode::kFullScreen, platform::ViewMode::kGallery}) {
        Cell c;
        c.id = id;
        c.n = n;
        c.view = view;
        c.key = std::string(platform_name(id)) + "/n" + std::to_string(n) +
                (view == platform::ViewMode::kGallery ? "/gallery" : "/full");
        for (int rep = 0; rep < reps; ++rep) cells.push_back(c);
      }
    }
  }

  const auto task = [&cells, duration](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index];
    core::ScaleBenchmarkConfig cfg;
    cfg.platform = c.id;
    cfg.n_total = c.n;
    cfg.phone_view = c.view;
    cfg.duration = duration;
    cfg.tracer = ctx.tracer;  // flight-record the whole session when traced
    const auto s = core::run_scale_session(cfg, ctx.seed);
    ctx.sample(c.key + ".s10_rate_mbps", s.s10_rate_mbps);
    ctx.sample(c.key + ".j3_rate_mbps", s.j3_rate_mbps);
    ctx.sample(c.key + ".s10_cpu_median", median_or_zero(s.s10_cpu));
    ctx.sample(c.key + ".j3_cpu_median", median_or_zero(s.j3_cpu));
  };

  // Both runs flight-record every task (into table4_traces/t1 and /t8): the
  // trace files, like the reports, must be byte-identical at any thread count.
  runner::ExperimentRunner::Config rc;
  rc.base_seed = 901;
  rc.label = "table4_scale";
  rc.trace_dir = "table4_traces";
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;

  TextTable table{{"N", "client", "full rate (Mbps)", "full CPU (%)", "gallery rate (Mbps)",
                   "gallery CPU (%)"}};
  auto cell = [&report](const std::string& key, const char* metric, int digits) {
    const auto* s10 = report.find_sample(key + ".s10_" + metric);
    const auto* j3 = report.find_sample(key + ".j3_" + metric);
    if (!s10 || !j3) return std::string{"-"};
    return TextTable::num(s10->mean(), digits) + "/" + TextTable::num(j3->mean(), digits);
  };
  for (const int n : {3, 6, 11}) {
    for (const auto id : vcb::all_platforms()) {
      const std::string base = std::string(platform_name(id)) + "/n" + std::to_string(n);
      table.add_row({std::to_string(n), std::string(platform_name(id)),
                     cell(base + "/full", "rate_mbps", 2), cell(base + "/full", "cpu_median", 0),
                     cell(base + "/gallery", "rate_mbps", 2),
                     cell(base + "/gallery", "cpu_median", 0)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("cells are S10/J3, as in the paper's Table 4.\n\n");

  std::printf("trace: %llu records (%llu dropped) across %zu tasks\n",
              static_cast<unsigned long long>(report.trace.records),
              static_cast<unsigned long long>(report.trace.dropped), cells.size());
  return run.finish("bench_table4_scale.report.json");
}
