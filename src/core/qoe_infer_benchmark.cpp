#include "core/qoe_infer_benchmark.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/session_world.h"

namespace vc::core {
namespace {

DataRate shaper_rate(InferShaperProfile profile) {
  switch (profile) {
    case InferShaperProfile::kDsl: return DataRate::mbps(3.0);
    case InferShaperProfile::kCongested: return DataRate::mbps(1.5);
    case InferShaperProfile::kUnshaped: break;
  }
  return DataRate::unlimited();
}

/// True target active at `t` in a recorded (time, target) step function.
DataRate target_at(const std::vector<std::pair<SimTime, DataRate>>& timeline, SimTime t) {
  DataRate current = timeline.empty() ? DataRate::zero() : timeline.front().second;
  for (const auto& [at, rate] : timeline) {
    if (at > t) break;
    current = rate;
  }
  return current;
}

bool intervals_overlap(SimTime a0, SimTime a1, SimTime b0, SimTime b1) {
  return a0 < b1 && b0 < a1;
}

}  // namespace

const char* infer_shaper_profile_name(InferShaperProfile profile) {
  switch (profile) {
    case InferShaperProfile::kUnshaped: return "unshaped";
    case InferShaperProfile::kDsl: return "dsl3m";
    case InferShaperProfile::kCongested: return "cong1500k";
  }
  return "?";
}

QoeInferSessionResult run_qoe_inference_session(const QoeInferBenchmarkConfig& config,
                                                std::uint64_t seed) {
  const int padded_w = config.content_width + 2 * config.padding;
  const int padded_h = config.content_height + 2 * config.padding;
  if (padded_w % 8 != 0 || padded_h % 8 != 0) {
    throw std::invalid_argument{"padded feed dimensions must be multiples of 8"};
  }
  for (const auto& [start, duration] : config.outages) {
    if (duration <= SimDuration::zero() || start < SimDuration::zero() ||
        start + duration > config.media_duration) {
      throw std::invalid_argument{"outage windows must lie inside the media window"};
    }
  }

  SessionWorld world{seed, {config.metrics, config.tracer}};
  world.add_platform(config.platform,
                     {.seed = seed ^ 0x1FE2, .fan_out_shards = config.fan_out_shards});
  net::Host& host_vm = world.vm(config.host_site, 8);
  net::Host& rx_vm = world.vm(config.receiver_site, 9);

  // Last-mile profile on the receiver's ingress (the tc/ifb analog).
  const DataRate cap = shaper_rate(config.shaper);
  if (!cap.is_unlimited()) {
    rx_vm.set_ingress_shaper(std::make_unique<net::TokenBucketShaper>(
        world.loop(), cap, /*burst=*/24'000, /*queue_limit_packets=*/100));
  }

  // The scripted impairment timeline — and, for outages, the freeze truth.
  fault::FaultPlan plan;
  for (const auto& [start, duration] : config.outages) {
    plan.link_outage(start, rx_vm.name(), duration);
  }
  if (config.burst_loss_average > 0.0) {
    plan.burst_loss(SimDuration::zero(), config.burst_loss_average,
                    config.burst_loss_mean_burst, rx_vm.name());
  }

  const auto content = std::make_shared<media::TalkingHeadFeed>(
      media::FeedParams{config.content_width, config.content_height, config.fps, seed ^ 0xFACE});
  const auto padded = std::make_shared<media::PaddedFeed>(content, config.padding);

  client::VcaClient::Config host_cfg = padded_config(
      config.content_width, config.content_height, config.padding, config.fps, seed);
  host_cfg.send_audio = true;  // audio interleaves on the wire: the
                               // classifier must reject it by size alone
  host_cfg.motion = platform::MotionClass::kLowMotion;
  client::VcaClient& host_client = world.client(host_vm, host_cfg);
  client::MediaFeeder& feeder = world.feeder(host_client);

  // Ground-truth encode-target timeline (truth side only; the inferencer
  // never sees it).
  std::vector<std::pair<SimTime, DataRate>> target_timeline;
  host_client.set_on_target_change(
      [&target_timeline](SimTime at, DataRate rate) { target_timeline.emplace_back(at, rate); });

  // Completed-frame accounting needs no decoded pixels.
  client::VcaClient::Config rx_cfg = padded_config(
      config.content_width, config.content_height, config.padding, config.fps, seed + 53);
  rx_cfg.send_video = false;
  client::VcaClient& receiver = world.client(rx_vm, rx_cfg);
  capture::PacketCapture rx_capture{rx_vm, world.clock_offset(rx_vm)};

  SimTime media_start{};
  testbed::SessionOrchestrator::Plan orch_plan;
  orch_plan.host = &host_client;
  orch_plan.participants = {&receiver};
  orch_plan.media_duration = config.media_duration;
  orch_plan.on_all_joined = [&] {
    media_start = world.network().now();
    feeder.play_video(padded, config.media_duration);
    feeder.play_audio(media::synthesize_voice(config.media_duration.seconds(), seed ^ 0xA0D10));
    if (!plan.empty()) plan.arm(world.bindings(), media_start);
  };
  world.orchestrate(std::move(orch_plan));
  world.run();

  // ---- the header-free estimate: trace in, report out.
  const SimTime media_end = media_start + config.media_duration;
  capture::QoeInferConfig infer_cfg = config.infer;
  infer_cfg.analysis_start = media_start;
  infer_cfg.analysis_end = media_end;
  const abr::TierLadder ladder = platform::tier_ladder(config.platform);
  infer_cfg.tier_rates_bps.clear();
  for (const abr::Tier& tier : ladder.tiers) {
    infer_cfg.tier_rates_bps.push_back(tier.rate.bits_per_second());
  }
  const capture::Trace rx_trace = rx_capture.trace();
  const capture::QoeInferencer inferencer{rx_trace, infer_cfg};
  const capture::QoeInferReport report = inferencer.analyze();

  QoeInferSessionResult out;
  out.inferred_fps = report.overall_fps;
  out.inferred_video_kbps = report.mean_video_kbps;
  out.inferred_frames = static_cast<std::int64_t>(report.frames.size());
  out.inferred_freezes = static_cast<int>(report.freezes.size());
  out.report_json = report.to_json();

  // ---- ground truth.
  out.truth_fps = static_cast<double>(receiver.stats().video_frames_completed) /
                  config.media_duration.seconds();
  out.truth_freezes = static_cast<int>(config.outages.size());
  if (!target_timeline.empty()) {
    double sum_kbps = 0.0;
    for (const auto& [at, rate] : target_timeline) sum_kbps += rate.as_kbps();
    out.truth_mean_target_kbps = sum_kbps / static_cast<double>(target_timeline.size());
  }

  // ---- join: frame rate.
  out.fps_abs_err = std::abs(out.inferred_fps - out.truth_fps);

  // ---- join: tier timeline. Windows touching an outage (+grace) carry the
  // outage, not the tier; the first window is encoder ramp-up — skip both.
  int matched = 0;
  for (std::size_t k = 1; k < report.windows.size(); ++k) {
    const capture::QoeInferWindow& w = report.windows[k];
    if (w.tier < 0) continue;
    const SimTime w_end = w.start + infer_cfg.window;
    bool in_outage = false;
    for (const auto& [start, duration] : config.outages) {
      const SimTime o0 = media_start + start;
      const SimTime o1 = o0 + duration + config.outage_grace;
      if (intervals_overlap(w.start, w_end, o0, o1)) in_outage = true;
    }
    if (in_outage) continue;
    const SimTime mid = w.start + infer_cfg.window / 2;
    const int truth_tier = ladder.nearest(target_at(target_timeline, mid));
    ++out.tier_windows;
    if (w.tier == truth_tier) ++matched;
  }
  out.tier_accuracy =
      out.tier_windows > 0 ? static_cast<double>(matched) / out.tier_windows : 0.0;

  // ---- join: freezes, by interval overlap against the scripted windows.
  int true_positives = 0;
  for (const capture::InferredFreeze& f : report.freezes) {
    for (const auto& [start, duration] : config.outages) {
      const SimTime o0 = media_start + start;
      if (intervals_overlap(f.start, f.end, o0, o0 + duration)) {
        ++true_positives;
        break;
      }
    }
  }
  int detected = 0;
  for (const auto& [start, duration] : config.outages) {
    const SimTime o0 = media_start + start;
    for (const capture::InferredFreeze& f : report.freezes) {
      if (intervals_overlap(f.start, f.end, o0, o0 + duration)) {
        ++detected;
        break;
      }
    }
  }
  if (out.inferred_freezes > 0) {
    out.freeze_precision = static_cast<double>(true_positives) / out.inferred_freezes;
  }
  if (out.truth_freezes > 0) {
    out.freeze_recall = static_cast<double>(detected) / out.truth_freezes;
  }

  rx_vm.set_ingress_shaper(nullptr);
  return out;
}

}  // namespace vc::core
