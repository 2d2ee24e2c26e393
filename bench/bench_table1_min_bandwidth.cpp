// Table 1: minimum bandwidth requirements for one-on-one calls.
//
// The paper quotes each operator's published minimums (Zoom 600 Kbps;
// Webex 0.5/2.5 Mbps; Meet 1/2.6 Mbps low/high quality) and notes its
// measurements are consistent with them. Here we *measure* the minimums:
// sweep the receiver's ingress cap downward in a two-party call and report
// the smallest cap at which the call stays usable (video delivering and
// audio intact) and the smallest cap at which it still runs at full quality.
//
// Every (platform, cap) cell — including the uncapped baseline — is an
// independent session (core::run_qoe_session on a core::bwcap_config) on
// runner::ExperimentRunner, executed once on one thread and once on eight;
// the floors are computed from the aggregate report, which must be
// bit-identical across the two.
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
  std::uint64_t platform_seed = 0;  // the pre-runner sweep's 1001 + id stream
  std::string key;                  // e.g. "Zoom/cap600 Kbps"
};

std::string cell_key(platform::PlatformId id, DataRate cap) {
  return std::string(platform_name(id)) + "/cap" + cap.to_string();
}

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Table 1 — minimum bandwidth for one-on-one calls (measured)", paper);

  const std::vector<double> caps_kbps = {250, 400, 500, 600, 750, 1000, 1500, 2000, 2600, 3000};

  std::vector<Cell> cells;
  for (const auto id : vcb::all_platforms()) {
    Cell base;
    base.id = id;
    base.cap = DataRate::unlimited();  // baseline quality cell
    base.platform_seed = 1001 + static_cast<std::uint64_t>(id);
    base.key = cell_key(id, base.cap);
    cells.push_back(base);
    for (const double kbps : caps_kbps) {
      Cell c = base;
      c.cap = DataRate::kbps(kbps);
      c.key = cell_key(id, c.cap);
      cells.push_back(c);
    }
  }

  const SimDuration media_duration = paper ? seconds(45) : seconds(10);
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
    if (r.has_video_qoe) ctx.sample(c.key + ".ssim", r.ssim);
    if (r.has_audio_qoe) ctx.sample(c.key + ".mos_lqo", r.mos_lqo);
    if (r.has_delivery_ratio) ctx.sample(c.key + ".delivery_ratio", r.delivery_ratio);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 1001;
  rc.label = "table1_min_bandwidth";
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;

  TextTable table{{"platform", "usable floor (Kbps)", "full-quality floor (Kbps)",
                   "paper low / high quality"}};
  for (const auto id : vcb::all_platforms()) {
    const auto* base_ssim = report.find_sample(cell_key(id, DataRate::unlimited()) + ".ssim");
    double usable_floor = 0.0;
    double full_floor = 0.0;
    for (const double kbps : caps_kbps) {
      const std::string k = cell_key(id, DataRate::kbps(kbps));
      const auto* ssim = report.find_sample(k + ".ssim");
      const auto* mos = report.find_sample(k + ".mos_lqo");
      const auto* deliv = report.find_sample(k + ".delivery_ratio");
      const bool usable = deliv != nullptr && deliv->mean() > 0.7 &&  //
                          mos != nullptr && mos->mean() > 3.0;
      const bool full = ssim != nullptr && base_ssim != nullptr &&
                        ssim->mean() > base_ssim->mean() - 0.03 &&  //
                        deliv != nullptr && deliv->mean() > 0.9;
      if (usable && usable_floor == 0.0) usable_floor = kbps;
      if (full && full_floor == 0.0) {
        full_floor = kbps;
        break;  // caps only get looser from here
      }
    }
    const char* published = id == platform::PlatformId::kZoom    ? "600 Kbps / -"
                            : id == platform::PlatformId::kWebex ? "500 Kbps / 2.5 Mbps"
                                                                 : "1 Mbps / 2.6 Mbps";
    table.add_row({std::string(platform_name(id)),
                   usable_floor > 0 ? TextTable::num(usable_floor, 0) : ">3000",
                   full_floor > 0 ? TextTable::num(full_floor, 0) : ">3000", published});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("'usable': >70%% of frames delivered and MOS-LQO > 3;\n"
              "'full quality': SSIM within 0.03 of the uncapped baseline.\n");

  return run.finish("bench_table1_min_bandwidth.report.json");
}
