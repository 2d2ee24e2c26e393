// Fig 14: QoE reduction when the injected feed changes from low-motion to
// high-motion (US scenario). The paper reports drops large enough to cost
// one MOS level across all three platforms.
//
// Each (platform, N, motion, repetition) cell is an independent broadcast
// session (core::run_qoe_session) on runner::ExperimentRunner, executed once
// on one thread and once on eight; the two aggregate reports must be
// bit-identical (the runner's determinism contract). The Fig 14 deltas are
// the low-motion minus high-motion aggregate means per (platform, N).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/qoe_benchmark.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

struct Cell {
  platform::PlatformId id{};
  int n = 0;
  platform::MotionClass motion{};
  std::uint64_t platform_seed = 0;  // the pre-runner sweep's 401 + id*17 + n stream
  std::string key;                  // e.g. "fig14/Zoom/N3/low"
};

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Fig 14 — QoE reduction from low-motion to high-motion feeds (US)", paper);

  const int max_n = paper ? 5 : 3;
  const int sessions_per_cell = paper ? 5 : 1;

  std::vector<Cell> cells;
  for (const auto id : vcb::all_platforms()) {
    for (int n = 1; n <= max_n; ++n) {
      for (const auto motion :
           {platform::MotionClass::kLowMotion, platform::MotionClass::kHighMotion}) {
        Cell c;
        c.id = id;
        c.n = n;
        c.motion = motion;
        const bool low = motion == platform::MotionClass::kLowMotion;
        c.platform_seed = 401 + static_cast<std::uint64_t>(id) * 17 +
                          static_cast<std::uint64_t>(n) + (low ? 0 : 1009);
        c.key = std::string("fig14/") + std::string(platform_name(id)) + "/N" +
                std::to_string(n) + (low ? "/low" : "/high");
        for (int s = 0; s < sessions_per_cell; ++s) cells.push_back(c);
      }
    }
  }

  const SimDuration media_duration = paper ? seconds(60) : seconds(10);
  const auto task = [&cells, media_duration](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index];
    core::QoeBenchmarkConfig cfg;
    cfg.platform = c.id;
    cfg.motion = c.motion;
    cfg.host_site = "US-East";
    cfg.receiver_sites = core::us_qoe_receiver_sites(c.n);
    cfg.media_duration = media_duration;
    cfg.content_width = 160;
    cfg.content_height = 112;
    cfg.padding = 16;
    cfg.fps = 10.0;
    cfg.metric_stride = 5;
    const auto r = core::run_qoe_session(cfg, ctx.seed ^ c.platform_seed);
    for (const core::QoeReceiverResult& rx : r.receivers) {
      if (rx.has_video_qoe) {
        ctx.sample(c.key + ".psnr", rx.psnr);
        ctx.sample(c.key + ".ssim", rx.ssim);
        ctx.sample(c.key + ".vifp", rx.vifp);
      }
    }
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 401;
  rc.label = "fig14_qoe_drop";
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;

  TextTable table{{"platform", "N", "dPSNR (dB)", "dSSIM", "dVIFp"}};
  for (const auto id : vcb::all_platforms()) {
    for (int n = 1; n <= max_n; ++n) {
      const std::string base =
          std::string("fig14/") + std::string(platform_name(id)) + "/N" + std::to_string(n);
      auto delta = [&report, &base](const char* metric) {
        const auto* lm = report.find_sample(base + "/low." + metric);
        const auto* hm = report.find_sample(base + "/high." + metric);
        return lm != nullptr && hm != nullptr ? lm->mean() - hm->mean() : 0.0;
      };
      table.add_row({std::string(platform_name(id)), std::to_string(n),
                     TextTable::num(delta("psnr"), 1), TextTable::num(delta("ssim"), 3),
                     TextTable::num(delta("vifp"), 3)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper: reductions are significant on all platforms (enough to drop one MOS\n"
              "level); Webex's high-motion degradation worsens with more users.\n");

  return run.finish("bench_fig14_qoe_drop.report.json");
}
