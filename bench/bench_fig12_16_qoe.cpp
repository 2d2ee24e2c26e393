// Figs 12 & 16: video QoE (PSNR / SSIM / VIFp) vs number of receivers N,
// for low- and high-motion feeds — US scenario (host US-East) and the
// Europe high-motion scenario (host CH, Fig 16).
//
// Paper anchors: low-motion sessions score visibly higher than high-motion
// (Finding 3); Meet's low-motion QoE drops between N=2 (its 1.6–2.0 Mbps
// two-party burst) and N>2 (0.4–0.6 Mbps); Webex is the most stable.
//
// The sweep runs on runner::ExperimentRunner: every (block, platform, N,
// session) cell is an independent broadcast session (core::run_qoe_session),
// executed once on one thread and once on eight. The two aggregate reports
// must be bit-identical (the runner's determinism contract).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/qoe_benchmark.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

struct Block {
  const char* title;
  const char* key;  // sample-key prefix, e.g. "fig12_us_low"
  bool europe;
  platform::MotionClass motion;
};

struct Cell {
  const Block* block = nullptr;
  platform::PlatformId id{};
  int n = 0;
  std::uint64_t platform_seed = 0;  // the pre-runner sweep's 211 + id*31 + n stream
  std::string key;                  // e.g. "fig12_us_low/Zoom/N3"
};

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Figs 12 & 16 — video QoE vs session size", paper);
  const int max_n = paper ? 5 : 3;
  const int sessions_per_cell = paper ? 5 : 1;

  const Block blocks[] = {
      {"Fig 12 (a-c): US, low motion", "fig12_us_low", false, platform::MotionClass::kLowMotion},
      {"Fig 12 (d-f): US, high motion", "fig12_us_high", false,
       platform::MotionClass::kHighMotion},
      {"Fig 16: Europe, high motion (host CH)", "fig16_eu_high", true,
       platform::MotionClass::kHighMotion},
  };

  std::vector<Cell> cells;
  for (const Block& block : blocks) {
    for (const auto id : vcb::all_platforms()) {
      for (int n = 1; n <= max_n; ++n) {
        Cell c;
        c.block = &block;
        c.id = id;
        c.n = n;
        c.platform_seed = 211 + static_cast<std::uint64_t>(id) * 31 + static_cast<std::uint64_t>(n);
        c.key = std::string(block.key) + "/" + std::string(platform_name(id)) + "/N" +
                std::to_string(n);
        for (int s = 0; s < sessions_per_cell; ++s) cells.push_back(c);
      }
    }
  }

  const SimDuration media_duration = paper ? seconds(60) : seconds(10);
  const int metric_stride = paper ? 4 : 5;
  const auto task = [&cells, media_duration, metric_stride](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index];
    core::QoeBenchmarkConfig cfg;
    cfg.platform = c.id;
    cfg.motion = c.block->motion;
    cfg.host_site = c.block->europe ? "CH" : "US-East";
    cfg.receiver_sites =
        c.block->europe ? core::europe_qoe_receiver_sites(c.n) : core::us_qoe_receiver_sites(c.n);
    cfg.media_duration = media_duration;
    cfg.content_width = 160;
    cfg.content_height = 112;
    cfg.padding = 16;
    cfg.fps = 10.0;
    cfg.metric_stride = metric_stride;
    const auto r = core::run_qoe_session(cfg, ctx.seed ^ c.platform_seed);
    ctx.sample(c.key + ".upload_kbps", r.upload_kbps);
    for (const core::QoeReceiverResult& rx : r.receivers) {
      ctx.sample(c.key + ".download_kbps", rx.download_kbps);
      if (rx.has_delivery_ratio) ctx.sample(c.key + ".delivery_ratio", rx.delivery_ratio);
      if (rx.has_video_qoe) {
        ctx.sample(c.key + ".psnr", rx.psnr);
        ctx.sample(c.key + ".ssim", rx.ssim);
        ctx.sample(c.key + ".vifp", rx.vifp);
      }
    }
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 211;
  rc.label = "fig12_16_qoe";
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;

  for (const Block& block : blocks) {
    std::printf("--- %s ---\n", block.title);
    TextTable table{{"platform", "N", "PSNR (dB)", "SSIM", "VIFp", "deliv", "host up (Kbps)",
                     "down (Kbps)"}};
    for (const auto id : vcb::all_platforms()) {
      for (int n = 1; n <= max_n; ++n) {
        const std::string k = std::string(block.key) + "/" + std::string(platform_name(id)) +
                              "/N" + std::to_string(n);
        auto cell = [&report, &k](const std::string& metric, int digits) {
          const auto* s = report.find_sample(k + metric);
          return s ? TextTable::num(s->mean(), digits) : std::string{"-"};
        };
        const auto* psnr = report.find_sample(k + ".psnr");
        table.add_row({std::string(platform_name(id)), std::to_string(n),
                       psnr ? TextTable::num(psnr->mean(), 1) + " ±" +
                                  TextTable::num(psnr->stddev(), 1)
                            : std::string{"-"},
                       cell(".ssim", 3), cell(".vifp", 3), cell(".delivery_ratio", 2),
                       cell(".upload_kbps", 0), cell(".download_kbps", 0)});
      }
    }
    std::printf("%s\n", table.render().c_str());
  }

  return run.finish("bench_fig12_16_qoe.report.json");
}
