// Fig 13: "video screen with padding" — why the paper pads its feeds.
//
// Client UIs draw widgets (buttons, thumbnails) over the screen border even
// in full-screen mode, occluding part of the rendered video. The paper's
// trick: surround the content with enough padding that the occlusion only
// ever covers padding, then crop it back out before scoring. This bench
// quantifies the damage the trick avoids: QoE of the same received stream
// scored (a) with the paper's padded/cropped pipeline and (b) naively, with
// the UI widgets inside the scored area.
//
// Each repetition is one self-contained Zoom session on
// runner::ExperimentRunner (both scoring pipelines run on the same recording
// inside the task); the serial and 8-thread aggregate reports must be
// bit-identical.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "client/recorder.h"
#include "core/session_world.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

constexpr int kContentW = 128;
constexpr int kContentH = 96;
constexpr int kPad = 16;
constexpr int kUiBorder = 8;  // UI widgets occlude the outer 8 px of the screen

struct PaddingResult {
  media::qoe::VideoQoe with_padding;  // padded feed, padding cropped (paper)
  media::qoe::VideoQoe naive;         // UI occlusion inside the scored area
};

media::qoe::VideoQoe mean_qoe(const media::AlignedPair& pair) {
  media::qoe::VideoQoe acc;
  int n = 0;
  for (std::size_t k = 0; k < pair.reference.size(); k += 4) {
    const auto q = media::qoe::video_qoe(pair.reference[k], pair.recording[k]);
    acc.psnr += q.psnr;
    acc.ssim += q.ssim;
    acc.vifp += q.vifp;
    ++n;
  }
  return media::qoe::VideoQoe{acc.psnr / n, acc.ssim / n, acc.vifp / n};
}

PaddingResult run_padding_session(std::uint64_t seed, SimDuration duration) {
  core::SessionWorld world{seed};
  world.add_platform(platform::PlatformId::kZoom, {});
  net::Host& host_vm = world.vm("US-East", 0);
  net::Host& rx_vm = world.vm("US-East", 1);

  auto content = std::make_shared<media::TalkingHeadFeed>(
      media::FeedParams{kContentW, kContentH, 10.0, 5});
  auto padded = std::make_shared<media::PaddedFeed>(content, kPad);

  client::VcaClient::Config host_cfg;
  host_cfg.send_audio = false;
  host_cfg.decode_video = false;
  host_cfg.video_width = kContentW + 2 * kPad;
  host_cfg.video_height = kContentH + 2 * kPad;
  host_cfg.fps = 10.0;
  host_cfg.ui_border = kUiBorder;
  host_cfg.motion = platform::MotionClass::kLowMotion;
  testbed::SessionOrchestrator::Plan plan;
  plan.host = &world.client(host_vm, host_cfg);
  auto rx_cfg = host_cfg;
  rx_cfg.send_video = false;
  rx_cfg.decode_video = true;
  plan.participants = {&world.client(rx_vm, rx_cfg)};
  client::MediaFeeder& feeder = world.feeder(*plan.host);
  client::DesktopRecorder recorder{*plan.participants[0], 10.0};

  plan.media_duration = duration;
  plan.on_all_joined = [&] {
    feeder.play_video(padded, duration);
    recorder.start(duration);
  };
  world.orchestrate(std::move(plan));
  world.run();

  // (a) The paper's pipeline: crop the padding (removing the occluded
  // border with it), score content vs content.
  const auto cropped = media::crop_and_resize(recorder.video(), kPad, kContentW, kContentH);
  std::vector<media::Frame> content_ref;
  for (std::size_t k = 0; k < cropped.frames.size(); ++k) {
    content_ref.push_back(content->frame_at(static_cast<std::int64_t>(k)));
  }
  const auto shift_a = media::best_temporal_shift(content_ref, cropped.frames, 10);
  const auto aligned_a = media::align_sequences(content_ref, cropped.frames, shift_a);

  // (b) Naive: score the full recorded screen (widgets and all) against the
  // injected padded frames.
  std::vector<media::Frame> padded_ref;
  for (std::size_t k = 0; k < recorder.video().frames.size(); ++k) {
    padded_ref.push_back(padded->frame_at(static_cast<std::int64_t>(k)));
  }
  const auto shift_b = media::best_temporal_shift(padded_ref, recorder.video().frames, 10);
  const auto aligned_b = media::align_sequences(padded_ref, recorder.video().frames, shift_b);

  return PaddingResult{mean_qoe(aligned_a), mean_qoe(aligned_b)};
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = vcb::paper_scale(argc, argv);
  vcb::banner("Fig 13 — the protective-padding pipeline, and what it avoids", paper);

  const std::size_t reps = paper ? 4 : 1;
  const SimDuration duration = paper ? seconds(60) : seconds(12);

  const auto task = [duration](runner::SessionContext& ctx) {
    const PaddingResult r = run_padding_session(ctx.seed, duration);
    ctx.sample("fig13/padded.psnr", r.with_padding.psnr);
    ctx.sample("fig13/padded.ssim", r.with_padding.ssim);
    ctx.sample("fig13/padded.vifp", r.with_padding.vifp);
    ctx.sample("fig13/naive.psnr", r.naive.psnr);
    ctx.sample("fig13/naive.ssim", r.naive.ssim);
    ctx.sample("fig13/naive.vifp", r.naive.vifp);
    ctx.sample("fig13.phantom_loss_db", r.with_padding.psnr - r.naive.psnr);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 77;
  rc.label = "fig13_padding";
  rc.threads = 1;
  const auto serial = runner::ExperimentRunner{rc}.run(reps, task);
  rc.threads = 8;
  const auto report = runner::ExperimentRunner{rc}.run(reps, task);

  auto mean = [&report](const std::string& key) {
    const auto* s = report.find_sample(key);
    return s != nullptr ? s->mean() : 0.0;
  };
  TextTable table{{"scoring pipeline", "PSNR (dB)", "SSIM", "VIFp"}};
  table.add_row({"padded feed, padding cropped (paper)", TextTable::num(mean("fig13/padded.psnr"), 1),
                 TextTable::num(mean("fig13/padded.ssim"), 3),
                 TextTable::num(mean("fig13/padded.vifp"), 3)});
  table.add_row({"naive (UI occlusion inside scored area)", TextTable::num(mean("fig13/naive.psnr"), 1),
                 TextTable::num(mean("fig13/naive.ssim"), 3),
                 TextTable::num(mean("fig13/naive.vifp"), 3)});
  std::printf("%s\n", table.render().c_str());
  std::printf("UI widgets occlude the outer %d px of the screen; the %d px padding keeps\n"
              "them out of the content area, so the crop recovers a clean signal. Scoring\n"
              "naively attributes the occlusion to the platform: %.1f dB of phantom loss.\n",
              kUiBorder, kPad, mean("fig13.phantom_loss_db"));

  const bool identical = serial.aggregate_json() == report.aggregate_json();
  std::printf("\nsessions: %zu  failures: %zu\n", report.sessions, report.failures.size());
  std::printf("aggregate reports bit-identical across thread counts: %s\n",
              identical ? "yes" : "NO — determinism regression!");
  const std::string out_path = "bench_fig13_padding.report.json";
  if (runner::write_text_file(out_path, report.to_json())) {
    std::printf("report written to %s\n", out_path.c_str());
  }
  return identical ? 0 : 1;
}
