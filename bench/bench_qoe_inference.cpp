// Header-free QoE inference scored against ground truth (PR 8).
//
// Each cell is one broadcast session (core::run_qoe_inference_session):
// a host streams to one receiver whose last-mile follows the cell's shaper
// profile and scripted outage plan; the receiver's packet capture — record
// timestamps/lengths only — goes through capture::QoeInferencer, and the
// estimate is joined against the session's own codec-side truth. Reported
// per cell: frame-rate absolute error, bitrate-tier-timeline accuracy and
// freeze precision/recall.
//
// The sweep (platform × shaper profile × outage plan) runs on
// runner::ExperimentRunner once at 1 thread and once at 8; the aggregate
// reports must be bit-identical (exit 1).
//
// `--gate <mae_fps>` switches to the accuracy gate CI's perf-smoke job runs:
// scripted-outage scenes across all three platforms, pooled. Frame-rate MAE
// must stay at or below the gate (2 fps in CI), freeze precision and recall
// at or above 0.9, and the 1-vs-8-thread aggregates byte-identical —
// exit 3 on an accuracy miss, exit 1 on a determinism regression.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/qoe_infer_benchmark.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

struct Scene {
  const char* name;
  std::vector<std::pair<SimDuration, SimDuration>> outages;
};

struct Cell {
  platform::PlatformId id{};
  core::InferShaperProfile shaper{};
  const Scene* scene = nullptr;
  std::uint64_t cell_seed = 0;
  std::string key;  // e.g. "Zoom/dsl3m/out6s2s"
};

core::QoeInferBenchmarkConfig cell_config(const Cell& c, SimDuration media_duration) {
  core::QoeInferBenchmarkConfig cfg;
  cfg.platform = c.id;
  cfg.shaper = c.shaper;
  cfg.outages = c.scene->outages;
  cfg.media_duration = media_duration;
  return cfg;
}

void sample_cell(runner::SessionContext& ctx, const std::string& key,
                 const core::QoeInferSessionResult& r) {
  ctx.sample(key + ".fps_abs_err", r.fps_abs_err);
  ctx.sample(key + ".inferred_fps", r.inferred_fps);
  ctx.sample(key + ".truth_fps", r.truth_fps);
  ctx.sample(key + ".tier_accuracy", r.tier_accuracy);
  ctx.sample(key + ".tier_windows", static_cast<double>(r.tier_windows));
  ctx.sample(key + ".freeze_precision", r.freeze_precision);
  ctx.sample(key + ".freeze_recall", r.freeze_recall);
  ctx.sample(key + ".inferred_freezes", static_cast<double>(r.inferred_freezes));
  ctx.sample(key + ".video_kbps", r.inferred_video_kbps);
}

/// Accuracy gate (CI perf-smoke): scripted-outage scenes on every platform,
/// pooled MAE / precision / recall against hard thresholds, plus the usual
/// 1-vs-8-thread byte identity. Returns the process exit code.
int accuracy_gate(double mae_gate, const std::string& out_path) {
  const SimDuration media_duration = seconds(16);
  static const Scene kGateScene{"out6s2s", {{seconds(6), seconds(2)}}};

  std::vector<Cell> cells;
  for (const auto id : vcb::all_platforms()) {
    Cell c;
    c.id = id;
    c.shaper = core::InferShaperProfile::kUnshaped;
    c.scene = &kGateScene;
    c.cell_seed = 7100 + static_cast<std::uint64_t>(id) * 13;
    c.key = std::string(platform_name(id)) + "/" + kGateScene.name;
    cells.push_back(c);
  }

  // The gate needs the raw per-session numbers, not just the aggregate
  // moments — collect them under stable per-cell keys and read them back.
  const auto task = [&cells, media_duration](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index % cells.size()];
    const auto r =
        core::run_qoe_inference_session(cell_config(c, media_duration), ctx.seed ^ c.cell_seed);
    sample_cell(ctx, c.key, r);
    sample_cell(ctx, "pooled", r);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 7100;
  rc.label = "qoe_infer_gate";
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;
  if (!run.ok()) {
    std::printf("FAIL: %zu gate session(s) threw, or the aggregate reports differ across "
                "thread counts — determinism regression\n",
                report.failures.size());
    return 1;
  }

  const auto* mae = report.find_sample("pooled.fps_abs_err");
  const auto* precision = report.find_sample("pooled.freeze_precision");
  const auto* recall = report.find_sample("pooled.freeze_recall");
  if (!mae || !precision || !recall) {
    std::printf("FAIL: pooled accuracy samples missing from the report\n");
    return 1;
  }
  std::printf("accuracy gate over %zu scripted-outage scenes:\n", report.sessions);
  std::printf("  frame-rate MAE %.3f fps (gate <= %.2f)\n", mae->mean(), mae_gate);
  std::printf("  freeze precision %.3f, recall %.3f (gate >= 0.90)\n", precision->mean(),
              recall->mean());
  std::printf("  aggregates byte-identical across 1/8 threads: yes\n");

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\n  \"benchmark\": \"qoe_infer_gate\",\n  \"scenes\": %zu,\n"
                "  \"fps_mae\": %.6f,\n  \"fps_mae_gate\": %.2f,\n"
                "  \"freeze_precision\": %.6f,\n  \"freeze_recall\": %.6f,\n"
                "  \"freeze_gate\": 0.9,\n  \"aggregates_byte_identical\": true\n}\n",
                report.sessions, mae->mean(), mae_gate, precision->mean(), recall->mean());
  if (runner::write_text_file(out_path, json)) {
    std::printf("report written to %s\n", out_path.c_str());
  }

  if (mae->mean() > mae_gate || precision->mean() < 0.9 || recall->mean() < 0.9) {
    std::printf("FAIL: header-free inference accuracy below the gate\n");
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  const double gate = flags.number("--gate", 0.0);
  const std::string out_path = flags.text("--out", "bench_qoe_inference.report.json");
  flags.reject_unread();
  if (gate > 0.0) return accuracy_gate(gate, out_path);

  vcb::banner("Header-free QoE inference — estimate vs ground truth", paper);

  static const Scene kClean{"clean", {}};
  static const Scene kOneOutage{"out6s2s", {{seconds(6), seconds(2)}}};
  static const Scene kTwoOutages{"out4s+12s", {{seconds(4), seconds(2)}, {seconds(12), seconds(3)}}};
  std::vector<const Scene*> scenes = {&kClean, &kOneOutage};
  std::vector<core::InferShaperProfile> shapers = {core::InferShaperProfile::kUnshaped,
                                                   core::InferShaperProfile::kDsl};
  SimDuration media_duration = seconds(16);
  int sessions_per_cell = 1;
  if (paper) {
    scenes.push_back(&kTwoOutages);
    shapers.push_back(core::InferShaperProfile::kCongested);
    media_duration = seconds(30);
    sessions_per_cell = 3;
  }

  std::vector<Cell> cells;
  for (const auto id : vcb::all_platforms()) {
    for (const auto shaper : shapers) {
      for (const Scene* scene : scenes) {
        Cell c;
        c.id = id;
        c.shaper = shaper;
        c.scene = scene;
        c.cell_seed = 7001 + static_cast<std::uint64_t>(id) * 37 +
                      static_cast<std::uint64_t>(shaper) * 101;
        c.key = std::string(platform_name(id)) + "/" +
                core::infer_shaper_profile_name(shaper) + "/" + scene->name;
        for (int s = 0; s < sessions_per_cell; ++s) cells.push_back(c);
      }
    }
  }

  const auto task = [&cells, media_duration](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index];
    core::QoeInferBenchmarkConfig cfg = cell_config(c, media_duration);
    cfg.metrics = &ctx.metrics;
    cfg.tracer = ctx.tracer;
    const auto r = core::run_qoe_inference_session(cfg, ctx.seed ^ c.cell_seed);
    sample_cell(ctx, c.key, r);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 7001;
  rc.label = "qoe_inference";
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;

  TextTable table{{"platform", "shaper", "scene", "truth fps", "est fps", "|err|",
                   "tier acc", "frz P", "frz R"}};
  auto cell_num = [&report](const std::string& key, int digits) {
    const auto* s = report.find_sample(key);
    return s ? TextTable::num(s->mean(), digits) : std::string{"-"};
  };
  for (const auto id : vcb::all_platforms()) {
    for (const auto shaper : shapers) {
      for (const Scene* scene : scenes) {
        const std::string k = std::string(platform_name(id)) + "/" +
                              core::infer_shaper_profile_name(shaper) + "/" + scene->name;
        table.add_row({std::string(platform_name(id)),
                       core::infer_shaper_profile_name(shaper), scene->name,
                       cell_num(k + ".truth_fps", 2), cell_num(k + ".inferred_fps", 2),
                       cell_num(k + ".fps_abs_err", 2), cell_num(k + ".tier_accuracy", 2),
                       cell_num(k + ".freeze_precision", 2),
                       cell_num(k + ".freeze_recall", 2)});
      }
    }
  }
  std::printf("%s\n", table.render().c_str());

  return run.finish(out_path);
}
