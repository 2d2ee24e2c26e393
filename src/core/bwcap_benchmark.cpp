#include "core/bwcap_benchmark.h"

#include <memory>
#include <utility>

#include "capture/rate_analyzer.h"
#include "client/recorder.h"
#include "core/session_world.h"
#include "media/qoe/mos_lqo.h"

namespace vc::core {
namespace {

constexpr const char* kReceiverSite = "US-East";

}  // namespace

BwCapSessionResult run_bwcap_session(const BwCapBenchmarkConfig& config, std::uint64_t seed) {
  // Built first, so a bad metric_stride throws before anything is simulated.
  const VideoScorer scorer{config.padding, config.content_width, config.content_height,
                           config.metric_stride};
  BwCapSessionResult out;

  // The platform, the host VM and the receiver VM.
  SessionWorld world{seed};
  world.add_platform(config.platform, seed ^ 0xCAB);
  net::Host& host_vm = world.vm(config.host_site, 8);
  net::Host& rx_vm = world.vm(kReceiverSite, 9);

  // Arm the ingress shaper for this session (tc qdisc on ifb).
  net::TokenBucketShaper* shaper = nullptr;
  if (!config.cap.is_unlimited()) {
    auto owned = std::make_unique<net::TokenBucketShaper>(world.loop(), config.cap,
                                                          /*burst=*/24'000,
                                                          /*queue_limit_packets=*/100);
    shaper = owned.get();
    rx_vm.set_ingress_shaper(std::move(owned));
  }

  const auto content = motion_feed(
      config.motion, {config.content_width, config.content_height, config.fps, seed ^ 0xFEED});
  const auto padded = std::make_shared<media::PaddedFeed>(content, config.padding);
  const auto voice = media::synthesize_voice(config.media_duration.seconds() + 1.0,
                                             seed ^ 0x701CE);

  client::VcaClient::Config host_cfg = padded_config(
      config.content_width, config.content_height, config.padding, config.fps, seed);
  host_cfg.send_audio = true;
  host_cfg.motion = config.motion;
  client::VcaClient& host_client = world.client(host_vm, host_cfg);
  client::MediaFeeder& feeder = world.feeder(host_client);

  client::VcaClient::Config rx_cfg = padded_config(
      config.content_width, config.content_height, config.padding, config.fps, seed + 77);
  rx_cfg.send_video = false;
  rx_cfg.decode_video = true;
  client::VcaClient& receiver = world.client(rx_vm, rx_cfg);
  client::DesktopRecorder recorder{receiver, config.fps};
  capture::PacketCapture rx_capture{rx_vm, world.clock_offset(rx_vm)};

  SimTime media_start{};
  testbed::SessionOrchestrator::Plan plan;
  plan.host = &host_client;
  plan.participants = {&receiver};
  plan.media_duration = config.media_duration;
  plan.on_all_joined = [&] {
    media_start = world.network().now();
    feeder.play_video(padded, config.media_duration);
    feeder.play_audio(voice);
    recorder.start(config.media_duration);
  };
  world.orchestrate(std::move(plan));
  world.run();

  // --- video QoE ---
  if (const auto qoe = scorer.score({&recorder.video()}, *content).front()) {
    out.has_video_qoe = true;
    out.psnr = qoe->psnr;
    out.ssim = qoe->ssim;
    out.vifp = qoe->vifp;
  }

  // --- audio QoE (EBU-style normalization → offset alignment → MOS) ---
  media::AudioSignal received = receiver.received_audio();
  if (!received.samples.empty()) {
    media::AudioSignal reference = voice;
    media::normalize_loudness(reference);
    media::normalize_loudness(received);
    const auto max_shift = static_cast<std::int64_t>(2 * reference.sample_rate);
    const auto offset = media::find_offset_samples(reference, received, max_shift);
    const auto aligned = media::shifted(received, offset, reference.samples.size());
    out.has_audio_qoe = true;
    out.mos_lqo = media::qoe::mos_lqo(reference, aligned);
  }

  // --- traffic ---
  const capture::Trace rx_trace = rx_capture.trace();
  const capture::RateAnalyzer rates{rx_trace};
  out.download_kbps = rates.average(media_start).download.as_kbps();
  if (shaper != nullptr) {
    const auto& st = shaper->stats();
    const double total = static_cast<double>(st.forwarded_bytes + st.dropped_bytes);
    out.drop_fraction = total > 0 ? static_cast<double>(st.dropped_bytes) / total : 0.0;
  }
  if (host_client.stats().video_frames_sent > 0) {
    out.has_delivery_ratio = true;
    out.delivery_ratio = static_cast<double>(receiver.stats().video_frames_completed) /
                         static_cast<double>(host_client.stats().video_frames_sent);
  }
  return out;
}

}  // namespace vc::core
