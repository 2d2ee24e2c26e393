// Figs 17 & 18: video and audio QoE under receiver-side bandwidth caps
// (tc/ifb-style ingress shaping), two-party sessions.
//
// Paper anchors: Zoom holds the best QoE down the sweep but collapses
// suddenly at 250 Kbps; Meet degrades most gracefully; Webex falls apart
// below ~1 Mbps (stalls/disappearing video) and even its audio — despite a
// 45 Kbps rate — deteriorates at ≤500 Kbps, while Zoom/Meet audio stays flat.
//
// The sweep runs on runner::ExperimentRunner: every (platform, cap, session)
// cell is an independent capped session (core::run_qoe_session on a
// core::bwcap_config), executed once on one thread and once on eight. The
// two aggregate reports must be bit-identical (the runner's determinism
// contract); the wall-clock ratio is the measured parallel speedup on this
// machine.
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
  DataRate cap{};
  std::uint64_t platform_seed = 0;  // the pre-runner sweep's 701 + id*29 stream
  std::string key;                  // e.g. "Zoom/cap500 Kbps"
};

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Figs 17-18 — streaming under bandwidth constraints", paper);

  const std::vector<DataRate> caps = {DataRate::kbps(250),  DataRate::kbps(500),
                                      DataRate::kbps(750),  DataRate::mbps(1.0),
                                      DataRate::mbps(1.5),  DataRate::mbps(2.0),
                                      DataRate::mbps(3.0),  DataRate::unlimited()};
  const int sessions_per_cell = paper ? 5 : 1;
  const SimDuration media_duration = paper ? seconds(60) : seconds(12);

  std::vector<Cell> cells;
  for (const auto id : vcb::all_platforms()) {
    for (const auto cap : caps) {
      Cell c;
      c.id = id;
      c.cap = cap;
      c.platform_seed = 701 + static_cast<std::uint64_t>(id) * 29;
      c.key = std::string(platform_name(id)) + "/cap" + cap.to_string();
      for (int s = 0; s < sessions_per_cell; ++s) cells.push_back(c);
    }
  }

  const auto task = [&cells, media_duration](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index];
    core::QoeBenchmarkConfig cfg = core::bwcap_config(c.cap);
    cfg.platform = c.id;
    cfg.media_duration = media_duration;
    cfg.content_width = 160;
    cfg.content_height = 112;
    cfg.padding = 16;
    cfg.fps = 10.0;
    cfg.metric_stride = 5;
    const auto r = core::run_qoe_session(cfg, ctx.seed ^ c.platform_seed).receivers.front();
    if (r.has_video_qoe) {
      ctx.sample(c.key + ".psnr", r.psnr);
      ctx.sample(c.key + ".ssim", r.ssim);
      ctx.sample(c.key + ".vifp", r.vifp);
    }
    if (r.has_audio_qoe) ctx.sample(c.key + ".mos_lqo", r.mos_lqo);
    if (r.has_delivery_ratio) ctx.sample(c.key + ".delivery_ratio", r.delivery_ratio);
    ctx.sample(c.key + ".download_kbps", r.download_kbps);
    ctx.sample(c.key + ".drop_fraction", r.drop_fraction);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 701;
  rc.label = "fig17_18_bwcap";
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;

  TextTable table{{"platform", "cap", "PSNR (dB)", "SSIM", "VIFp", "MOS-LQO", "deliv", "drop%",
                   "down (Kbps)"}};
  auto cell = [&report](const std::string& key, int digits, double scale = 1.0) {
    const auto* s = report.find_sample(key);
    return s ? TextTable::num(scale * s->mean(), digits) : std::string{"-"};
  };
  for (const auto id : vcb::all_platforms()) {
    for (const auto cap : caps) {
      const std::string k = std::string(platform_name(id)) + "/cap" + cap.to_string();
      table.add_row({std::string(platform_name(id)), cap.to_string(), cell(k + ".psnr", 1),
                     cell(k + ".ssim", 3), cell(k + ".vifp", 3), cell(k + ".mos_lqo", 2),
                     cell(k + ".delivery_ratio", 2), cell(k + ".drop_fraction", 1, 100.0),
                     cell(k + ".download_kbps", 0)});
    }
  }
  std::printf("%s\n", table.render().c_str());

  return run.finish("bench_fig17_18_bwcap.report.json");
}
