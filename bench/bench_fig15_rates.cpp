// Fig 15: upload/download Layer-7 data rates for the QoE sessions (US),
// vs session size and motion class, plus across-session rate variability.
//
// Paper anchors: all platforms send low-motion cheaper (Webex halves it,
// Meet −20%, Zoom −5-10%); Zoom P2P (N=2) ≈ 1 Mbps vs ≈ 0.7 Mbps relayed;
// Meet N=2 bursts to 1.6–2.0 Mbps then drops to 0.4–0.6 Mbps; Webex is
// virtually constant across sessions while Meet fluctuates the most.
//
// Every (motion, platform, N, repetition) cell is an independent rate-only
// session (core::run_qoe_session, score_video=false) on
// runner::ExperimentRunner; the serial and 8-thread aggregate reports must
// be bit-identical. The session-to-session CV column is the coefficient of
// variation of the per-session download rates across a cell's repetitions —
// read straight off the aggregate sample's stddev/mean.
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
  std::uint64_t platform_seed = 0;  // the pre-runner sweep's 601 + id*13 + n stream
  std::string key;                  // e.g. "fig15/low/Zoom/N3"
};

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Fig 15 — upload/download data rates (US)", paper);

  const int max_n = paper ? 5 : 3;
  const int sessions_per_cell = paper ? 6 : 3;

  std::vector<Cell> cells;
  for (const auto motion :
       {platform::MotionClass::kLowMotion, platform::MotionClass::kHighMotion}) {
    for (const auto id : vcb::all_platforms()) {
      for (int n = 1; n <= max_n; ++n) {
        const bool low = motion == platform::MotionClass::kLowMotion;
        Cell c;
        c.id = id;
        c.n = n;
        c.motion = motion;
        c.platform_seed = 601 + static_cast<std::uint64_t>(id) * 13 +
                          static_cast<std::uint64_t>(n) + (low ? 0 : 7);
        c.key = std::string("fig15/") + (low ? "low/" : "high/") +
                std::string(platform_name(id)) + "/N" + std::to_string(n);
        for (int s = 0; s < sessions_per_cell; ++s) cells.push_back(c);
      }
    }
  }

  const SimDuration media_duration = paper ? seconds(45) : seconds(8);
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
    cfg.score_video = false;  // rates only: no recording or pixel scoring
    const auto r = core::run_qoe_session(cfg, ctx.seed ^ c.platform_seed);
    ctx.sample(c.key + ".upload_kbps", r.upload_kbps);
    ctx.sample(c.key + ".session_kbps", r.session_download_kbps);
    for (const core::QoeReceiverResult& rx : r.receivers) {
      ctx.sample(c.key + ".download_kbps", rx.download_kbps);
    }
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 601;
  rc.label = "fig15_rates";
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;

  for (const auto motion :
       {platform::MotionClass::kLowMotion, platform::MotionClass::kHighMotion}) {
    const bool low = motion == platform::MotionClass::kLowMotion;
    std::printf("--- %s ---\n", low ? "(a) low motion" : "(b) high motion");
    TextTable table{{"platform", "N", "host upload (Kbps)", "download (Kbps)",
                     "session-to-session CV", "path"}};
    for (const auto id : vcb::all_platforms()) {
      for (int n = 1; n <= max_n; ++n) {
        const std::string base = std::string("fig15/") + (low ? "low/" : "high/") +
                                 std::string(platform_name(id)) + "/N" + std::to_string(n);
        const auto* up = report.find_sample(base + ".upload_kbps");
        const auto* down = report.find_sample(base + ".download_kbps");
        const auto* session = report.find_sample(base + ".session_kbps");
        const double cv = session != nullptr && session->mean() > 0
                              ? session->stddev() / session->mean()
                              : 0.0;
        const bool p2p = id == platform::PlatformId::kZoom && n == 1;
        table.add_row({std::string(platform_name(id)), std::to_string(n),
                       TextTable::num(up != nullptr ? up->mean() : 0.0, 0),
                       TextTable::num(down != nullptr ? down->mean() : 0.0, 0),
                       TextTable::num(cv, 3), p2p ? "P2P" : "relay"});
      }
    }
    std::printf("%s\n", table.render().c_str());
  }

  return run.finish("bench_fig15_rates.report.json");
}
