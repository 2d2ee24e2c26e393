// Extension (Section 6, "Effect of last mile"): the paper's cloud vantage
// points are too clean; it calls for QoE analysis under realistic last-mile
// conditions — bursty loss, jitter, and *dynamic* bandwidth variation, not
// just static caps. Three experiments on a two-party Zoom call:
//
//  E1. Loss burstiness at a fixed average rate: Bernoulli vs Gilbert–Elliott
//      with increasing burst lengths. For a codec whose frames span several
//      packets, *independent* loss is the worst case — nearly every frame
//      loses at least one fragment — while bursts concentrate the same
//      average damage into fewer frames, so QoE recovers with burst length.
//  E2. Last-mile jitter: raising path jitter inflates lag percentiles but
//      barely touches QoE (frames reassemble regardless of intra-frame
//      ordering).
//  E3. Dynamic bandwidth: an oscillating cap vs a static cap with the same
//      time average; adaptation lag makes oscillation strictly worse.
//
// All nine conditions run as independent session tasks on the parallel
// experiment runner; the network, relays, codecs and the E3 token-bucket
// shapers report through the per-session MetricsRegistry. The run executes
// at 1 thread and at 8; the two aggregate reports must be bit-identical.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "capture/rate_analyzer.h"
#include "client/recorder.h"
#include "core/session_world.h"
#include "net/loss.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

struct RunResult {
  double psnr = 0;
  double ssim = 0;
  double delivery = 0;
  double down_kbps = 0;
};

using Impair = std::function<void(net::EventLoop&, net::Host&)>;

// One two-party Zoom session, host US-East → receiver US-East, with optional
// receiver-side impairments.
RunResult run_session(std::unique_ptr<net::LossModel> ingress_loss, double jitter_mean_ms,
                      const Impair& impair, std::uint64_t seed, MetricsRegistry& metrics) {
  testbed::CloudTestbed::Config bed_cfg;
  bed_cfg.seed = seed;
  bed_cfg.latency.jitter_mean_ms = jitter_mean_ms;
  core::SessionWorld world{bed_cfg, {.metrics = &metrics}};
  world.add_platform(platform::PlatformId::kZoom, seed ^ 0xE);
  net::Host& host_vm = world.vm("US-East", 0);
  net::Host& rx_vm = world.vm("US-East", 1);
  if (ingress_loss) rx_vm.set_ingress_loss(std::move(ingress_loss));
  if (impair) impair(world.loop(), rx_vm);

  const int content_w = 128;
  const int content_h = 96;
  const int pad = 16;
  auto content = std::make_shared<media::TalkingHeadFeed>(
      media::FeedParams{content_w, content_h, 10.0, seed ^ 0xF00D});
  auto padded = std::make_shared<media::PaddedFeed>(content, pad);

  client::VcaClient::Config host_cfg = core::padded_config(content_w, content_h, pad, 10.0, seed);
  host_cfg.motion = platform::MotionClass::kLowMotion;
  client::VcaClient& host = world.client(host_vm, host_cfg);
  auto rx_cfg = host_cfg;
  rx_cfg.send_video = false;
  rx_cfg.decode_video = true;
  client::VcaClient& rx = world.client(rx_vm, rx_cfg);
  client::MediaFeeder& feeder = world.feeder(host);
  client::DesktopRecorder recorder{rx, 10.0};
  capture::PacketCapture rx_cap{rx_vm, world.clock_offset(rx_vm)};

  const auto duration = seconds(15);
  testbed::SessionOrchestrator::Plan plan;
  plan.host = &host;
  plan.participants = {&rx};
  plan.media_duration = duration;
  plan.on_all_joined = [&] {
    feeder.play_video(padded, duration);
    recorder.start(duration);
  };
  world.orchestrate(std::move(plan));
  world.run();

  RunResult out;
  const core::VideoScorer scorer{pad, content_w, content_h, /*metric_stride=*/5};
  if (const auto qoe = scorer.score({&recorder.video()}, *content).front()) {
    out.psnr = qoe->psnr;
    out.ssim = qoe->ssim;
  }
  if (host.stats().video_frames_sent > 0) {
    out.delivery = static_cast<double>(rx.stats().video_frames_completed) /
                   static_cast<double>(host.stats().video_frames_sent);
  }
  out.down_kbps = capture::RateAnalyzer{rx_cap.trace()}.average().download.as_kbps();
  return out;
}

struct Condition {
  std::string section;  // "E1", "E2", "E3"
  std::string label;
  std::function<std::unique_ptr<net::LossModel>()> loss;  // null = lossless
  double jitter_mean_ms = 0.3;
  Impair impair;  // null = no shaping
  std::string key() const { return section + "/" + label; }
};

// Installed shapers report under the receiver's per-link prefix,
// `net.link.<rx>.*`.
Impair static_shaper(int kbps) {
  return [kbps](net::EventLoop& loop, net::Host& rx) {
    rx.set_ingress_shaper(
        std::make_unique<net::TokenBucketShaper>(loop, DataRate::kbps(kbps), 24'000, 100));
  };
}

Impair oscillating_shaper(int hi_kbps, int lo_kbps) {
  return [hi_kbps, lo_kbps](net::EventLoop& event_loop, net::Host& rx) {
    rx.set_ingress_shaper(std::make_unique<net::TokenBucketShaper>(
        event_loop, DataRate::kbps(hi_kbps), 24'000, 100));
    net::TokenBucketShaper* raw = rx.ingress_shaper();
    // tc-style periodic rate changes, bounded so the loop drains.
    auto flip = std::make_shared<std::function<void(bool, int)>>();
    net::EventLoop* loop = &event_loop;
    *flip = [loop, raw, flip, hi_kbps, lo_kbps](bool high, int remaining) {
      raw->set_rate(DataRate::kbps(high ? hi_kbps : lo_kbps));
      if (remaining > 0) {
        loop->schedule_after(seconds(3),
                             [flip, high, remaining] { (*flip)(!high, remaining - 1); });
      }
    };
    loop->schedule_after(seconds(3), [flip] { (*flip)(false, 8); });
  };
}

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Extension — last-mile effects (Zoom, two-party)", paper);

  std::vector<Condition> conditions;
  auto add = [&conditions](Condition c) { conditions.push_back(std::move(c)); };
  // E1: loss burstiness at 3% average loss.
  add({"E1", "lossless", nullptr, 0.3, nullptr});
  add({"E1", "Bernoulli 3%", [] { return std::make_unique<net::BernoulliLoss>(0.03); }, 0.3,
       nullptr});
  add({"E1", "bursts of ~4 pkts",
       [] {
         return std::make_unique<net::GilbertElliottLoss>(
             net::GilbertElliottLoss::with_average(0.03, 4));
       },
       0.3, nullptr});
  add({"E1", "bursts of ~16 pkts",
       [] {
         return std::make_unique<net::GilbertElliottLoss>(
             net::GilbertElliottLoss::with_average(0.03, 16));
       },
       0.3, nullptr});
  // E2: last-mile jitter.
  for (const double jitter : {0.3, 3.0, 10.0}) {
    add({"E2", TextTable::num(jitter, 1), nullptr, jitter, nullptr});
  }
  // E3: dynamic vs static bandwidth (same ~600 Kbps average).
  add({"E3", "static 600 Kbps", nullptr, 0.3, static_shaper(600)});
  add({"E3", "oscillating 1000/200 Kbps", nullptr, 0.3, oscillating_shaper(1000, 200)});

  const auto task = [&conditions](runner::SessionContext& ctx) {
    const Condition& c = conditions[ctx.task_index];
    const auto r = run_session(c.loss ? c.loss() : nullptr, c.jitter_mean_ms, c.impair, ctx.seed,
                               ctx.metrics);
    ctx.sample(c.key() + ".psnr", r.psnr);
    ctx.sample(c.key() + ".ssim", r.ssim);
    ctx.sample(c.key() + ".delivery", r.delivery);
    ctx.sample(c.key() + ".down_kbps", r.down_kbps);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 211;
  rc.label = "ext_lastmile";
  const auto run = vcb::run_checked(rc, conditions.size(), task);
  const auto& report = run.report;

  auto value = [&report](const Condition& c, const char* metric) {
    const auto* s = report.find_sample(c.key() + "." + metric);
    return s ? s->mean() : 0.0;
  };

  std::printf("--- E1: loss burstiness at 3%% average loss ---\n");
  {
    TextTable table{{"loss pattern", "PSNR", "SSIM", "frames delivered"}};
    for (const auto& c : conditions) {
      if (c.section != "E1") continue;
      table.add_row({c.label, TextTable::num(value(c, "psnr"), 1),
                     TextTable::num(value(c, "ssim"), 3), TextTable::num(value(c, "delivery"), 2)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf("--- E2: last-mile jitter ---\n");
  {
    TextTable table{{"path jitter (exp mean, ms)", "PSNR", "frames delivered"}};
    for (const auto& c : conditions) {
      if (c.section != "E2") continue;
      table.add_row({c.label, TextTable::num(value(c, "psnr"), 1),
                     TextTable::num(value(c, "delivery"), 2)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf("--- E3: dynamic vs static bandwidth (same ~600 Kbps average) ---\n");
  {
    TextTable table{{"bandwidth pattern", "PSNR", "SSIM", "frames delivered"}};
    for (const auto& c : conditions) {
      if (c.section != "E3") continue;
      table.add_row({c.label, TextTable::num(value(c, "psnr"), 1),
                     TextTable::num(value(c, "ssim"), 3), TextTable::num(value(c, "delivery"), 2)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  // Only the E3 receivers (the second US-East VM) are shaped.
  const auto dropped = report.counters.find("net.link.US-East-2.dropped_packets");
  const auto forwarded = report.counters.find("net.link.US-East-2.forwarded_packets");
  if (dropped != report.counters.end() && forwarded != report.counters.end()) {
    std::printf("E3 shapers: %lld packets forwarded, %lld dropped at the token bucket\n",
                static_cast<long long>(forwarded->second),
                static_cast<long long>(dropped->second));
  }
  return run.finish("bench_ext_lastmile.report.json");
}
