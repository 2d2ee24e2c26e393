// Extension (Section 6, "Videoconferencing scalability"): the paper's QoE
// analysis stops at 11 participants and asks how systems behave as sessions
// grow. Here every participant streams simultaneously while session size
// sweeps to 25, and we track what a single observer client downloads and
// what the serving relay has to forward.
//
// Expected shapes: per-client download flattens once the UI tile cap (≤4
// visible streams) binds — the client-side scaling mechanism of Finding 5 —
// while relay forwarding work keeps growing ~quadratically (N senders × N
// receivers), which is the infrastructure-side scaling cost.
//
// Each (view, platform, N) point is one session task on the parallel
// experiment runner; network, relay, codec and session metrics flow through
// the per-session MetricsRegistry and are merged into the run report. The
// run executes at 1 thread and at 8; the aggregates must be bit-identical.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "capture/rate_analyzer.h"
#include "core/session_world.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

struct ScaleResult {
  double observer_down_kbps = 0;
  std::int64_t network_pkts = 0;
  std::size_t relays_used = 0;
};

ScaleResult run_scale(platform::PlatformId id, int n_total, platform::ViewMode view,
                      std::uint64_t seed, MetricsRegistry* metrics) {
  core::SessionWorld world{seed, {.metrics = metrics}};
  platform::BasePlatform& plat = world.add_platform(id, seed ^ 0x5CA1E);
  const auto us = testbed::us_sites();

  auto make_sender = [&](net::Host& vm, std::uint64_t s) {
    client::VcaClient::Config cfg;
    cfg.send_audio = false;
    cfg.decode_video = false;
    cfg.synthetic_video = true;
    cfg.motion = platform::MotionClass::kHighMotion;
    cfg.seed = s;
    return &world.client(vm, cfg);
  };

  client::VcaClient* host = make_sender(world.vm("US-East", 30), seed);

  // The observer participant we measure (also streaming, like everyone).
  net::Host& obs_vm = world.vm("US-West", 31);
  client::VcaClient::Config obs_cfg;
  obs_cfg.send_audio = false;
  obs_cfg.decode_video = false;
  obs_cfg.synthetic_video = true;
  obs_cfg.view = view;
  obs_cfg.motion = platform::MotionClass::kHighMotion;
  obs_cfg.seed = seed + 1;
  testbed::SessionOrchestrator::Plan plan;
  plan.host = host;
  plan.participants = {&world.client(obs_vm, obs_cfg)};
  capture::PacketCapture obs_cap{obs_vm, world.clock_offset(obs_vm)};

  for (int i = 0; i < n_total - 2; ++i) {
    net::Host& vm = world.vm(us[static_cast<std::size_t>(i) % us.size()], 40 + i);
    plan.participants.push_back(make_sender(vm, seed + 10 + static_cast<std::uint64_t>(i)));
  }

  SimTime media_start{};
  plan.media_duration = seconds(20);
  plan.on_all_joined = [&] { media_start = world.network().now(); };
  world.orchestrate(std::move(plan));
  world.run();

  ScaleResult out;
  out.observer_down_kbps =
      capture::RateAnalyzer{obs_cap.trace()}.average(media_start).download.as_kbps();
  out.relays_used = plat.allocator().relays_created();
  // Infrastructure-side work: total packets the network carried (client
  // uplinks plus every relay-forwarded copy).
  out.network_pkts = world.network().stats().packets_sent;
  return out;
}

struct Point {
  platform::PlatformId id{};
  int n = 0;
  platform::ViewMode view{};
  std::string key;  // e.g. "full/Zoom/n8"
};

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Extension — session-size scaling (every participant streaming)", paper);

  const int max_n = paper ? 30 : 25;
  std::vector<Point> points;
  for (const auto view : {platform::ViewMode::kFullScreen, platform::ViewMode::kGallery}) {
    for (const auto id : vcb::all_platforms()) {
      for (int n = 2; n <= max_n; n = n < 5 ? n + 3 : n * 2) {
        Point p;
        p.id = id;
        p.n = n;
        p.view = view;
        p.key = std::string(view == platform::ViewMode::kFullScreen ? "full" : "gallery") + "/" +
                std::string(platform_name(id)) + "/n" + std::to_string(n);
        points.push_back(p);
      }
    }
  }

  const auto task = [&points](runner::SessionContext& ctx) {
    const Point& p = points[ctx.task_index];
    const auto r = run_scale(p.id, p.n, p.view, ctx.seed, &ctx.metrics);
    ctx.sample(p.key + ".down_kbps", r.observer_down_kbps);
    ctx.sample(p.key + ".network_pkts", static_cast<double>(r.network_pkts));
    ctx.sample(p.key + ".relays", static_cast<double>(r.relays_used));
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 997;
  rc.label = "ext_scalability";
  const auto run = vcb::run_checked(rc, points.size(), task);
  const auto& report = run.report;

  for (const auto view : {platform::ViewMode::kFullScreen, platform::ViewMode::kGallery}) {
    std::printf("--- observer in %s ---\n",
                view == platform::ViewMode::kFullScreen ? "full-screen view" : "gallery view");
    TextTable table{{"platform", "N", "observer down (Kbps)", "network pkts", "relays"}};
    for (const auto& p : points) {
      if (p.view != view) continue;
      const auto* down = report.find_sample(p.key + ".down_kbps");
      const auto* pkts = report.find_sample(p.key + ".network_pkts");
      const auto* relays = report.find_sample(p.key + ".relays");
      if (!down || !pkts || !relays) continue;  // task failed; listed below
      table.add_row({std::string(platform_name(p.id)), std::to_string(p.n),
                     TextTable::num(down->mean(), 0),
                     std::to_string(static_cast<std::int64_t>(pkts->mean())),
                     std::to_string(static_cast<std::int64_t>(relays->mean()))});
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf("per-client download flattens at the 4-tile UI cap; total network load\n"
              "(and relay fan-out) keeps growing with every additional sender.\n\n");

  const auto media_in = report.counters.find("relay.media_in");
  const auto forwarded = report.counters.find("relay.media_forwarded");
  if (media_in != report.counters.end() && forwarded != report.counters.end()) {
    std::printf("relay totals across the sweep: %lld media packets in, %lld copies out\n",
                static_cast<long long>(media_in->second),
                static_cast<long long>(forwarded->second));
  }
  return run.finish("bench_ext_scalability.report.json");
}
