// Section 4.4, footnote 5: "We measure their audio rates separately using
// audio-only streams." — Zoom ~90 Kbps, Webex ~45 Kbps, Meet ~40 Kbps.
//
// A two-party session with video disabled on both sides; the receiver's L7
// download over the session is the platform's audio rate (the paper's
// explanation for why Zoom/Meet audio shrugs off bandwidth caps that ruin
// their video).
//
// Each (platform, repetition) cell is one self-contained audio-only session
// on runner::ExperimentRunner; the serial and 8-thread aggregate reports
// must be bit-identical.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "capture/rate_analyzer.h"
#include "core/session_world.h"
#include "media/audio.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

/// One audio-only two-party session; returns the receiver's L7 download rate.
double run_audio_session(platform::PlatformId id, std::uint64_t seed, SimDuration duration) {
  core::SessionWorld world{seed};
  world.add_platform(id);
  net::Host& host_vm = world.vm("US-East", 0);
  net::Host& rx_vm = world.vm("US-East", 1);

  client::VcaClient::Config host_cfg;
  host_cfg.send_video = false;  // audio-only stream
  host_cfg.send_audio = true;
  host_cfg.decode_video = false;
  testbed::SessionOrchestrator::Plan plan;
  plan.host = &world.client(host_vm, host_cfg);
  auto rx_cfg = host_cfg;
  rx_cfg.send_audio = false;
  plan.participants = {&world.client(rx_vm, rx_cfg)};
  client::MediaFeeder& feeder = world.feeder(*plan.host);
  capture::PacketCapture rx_cap{rx_vm};

  SimTime media_start{};
  plan.media_duration = duration;
  plan.on_all_joined = [&] {
    media_start = world.network().now();
    feeder.play_audio(media::synthesize_voice(duration.seconds(), 0xA0D10));
  };
  world.orchestrate(std::move(plan));
  world.run();

  return capture::RateAnalyzer{rx_cap.trace()}.average(media_start).download.as_kbps();
}

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Audio rates — audio-only streams (Section 4.4)", paper);

  const int sessions_per_platform = paper ? 4 : 1;
  struct Cell {
    platform::PlatformId id{};
    std::string key;
  };
  std::vector<Cell> cells;
  for (const auto id : vcb::all_platforms()) {
    for (int s = 0; s < sessions_per_platform; ++s) {
      cells.push_back({id, std::string("audio/") + std::string(platform_name(id))});
    }
  }

  const SimDuration duration = paper ? seconds(120) : seconds(30);
  const auto task = [&cells, duration](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index];
    ctx.sample(c.key + ".download_kbps", run_audio_session(c.id, ctx.seed, duration));
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 55;
  rc.label = "audio_rates";
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;

  TextTable table{{"platform", "measured audio rate (Kbps)", "paper (Kbps)"}};
  for (const auto id : vcb::all_platforms()) {
    const auto* s =
        report.find_sample(std::string("audio/") + std::string(platform_name(id)) +
                           ".download_kbps");
    const char* published = id == platform::PlatformId::kZoom    ? "90"
                            : id == platform::PlatformId::kWebex ? "45"
                                                                 : "40";
    table.add_row({std::string(platform_name(id)),
                   TextTable::num(s != nullptr ? s->mean() : 0.0, 0), published});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\n(voice has pauses: measured long-run average sits below the codec's\n"
              "nominal rate, as with real VAD/DTX-capable audio codecs)\n");

  return run.finish("bench_audio_rates.report.json");
}
