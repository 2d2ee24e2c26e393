#include "core/qoe_benchmark.h"

#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "capture/rate_analyzer.h"
#include "client/recorder.h"
#include "core/session_world.h"
#include "media/qoe/mos_lqo.h"

namespace vc::core {
namespace {

/// What a session mixes into its seed: XORed for the platform, the content
/// feed and the voice track, and receiver i's seed is
/// `seed + receiver_salt * (i + 1)`. The voice runs `voice_tail_s` past the
/// media.
struct SeedRow {
  std::uint64_t platform;
  std::uint64_t content;
  std::uint64_t voice;
  double voice_tail_s;
  std::uint64_t receiver_salt;
};

/// Indexed by SeedSet.
constexpr std::array<SeedRow, 2> kSeedRows = {{
    {.platform = 0xBEEF, .content = 0xC0FFEE, .voice = 0xA0D10, .voice_tail_s = 0.0,
     .receiver_salt = 17},  // kQoe
    {.platform = 0xCAB, .content = 0xFEED, .voice = 0x701CE, .voice_tail_s = 1.0,
     .receiver_salt = 77},  // kBwCap
}};

/// The capped VM's queue (tc qdisc on ifb).
constexpr std::int64_t kCapBurstBytes = 24'000;
constexpr std::size_t kCapQueuePackets = 100;

/// MOS-LQO of received audio against the injected voice: both EBU-style
/// loudness-normalized, aligned by the best offset within 2 s; nullopt when
/// nothing was received.
std::optional<double> audio_mos(media::AudioSignal reference, media::AudioSignal received) {
  if (received.samples.empty()) return std::nullopt;
  media::normalize_loudness(reference);
  media::normalize_loudness(received);
  const auto max_shift = static_cast<std::int64_t>(2 * reference.sample_rate);
  const auto offset = media::find_offset_samples(reference, received, max_shift);
  return media::qoe::mos_lqo(reference,
                             media::shifted(received, offset, reference.samples.size()));
}

}  // namespace

QoeBenchmarkConfig bwcap_config(DataRate cap) {
  QoeBenchmarkConfig cfg;
  cfg.receiver_sites = {"US-East"};
  cfg.cap = cap;
  cfg.score_audio = true;
  cfg.seeds = SeedSet::kBwCap;
  return cfg;
}

std::vector<std::string> us_qoe_receiver_sites(int n) {
  // Host in US-East; receivers alternate between US-West and US-East.
  const std::vector<std::string> pool = {"US-West", "US-East", "US-West", "US-East", "US-West"};
  if (n < 1 || n > static_cast<int>(pool.size())) throw std::invalid_argument{"n in [1,5]"};
  return {pool.begin(), pool.begin() + n};
}

std::vector<std::string> europe_qoe_receiver_sites(int n) {
  // Host in Switzerland; receivers in France, Germany, Ireland, UK (Fig 16).
  const std::vector<std::string> pool = {"FR", "DE", "IE", "UK-South", "NL"};
  if (n < 1 || n > static_cast<int>(pool.size())) throw std::invalid_argument{"n in [1,5]"};
  return {pool.begin(), pool.begin() + n};
}

QoeSessionResult run_qoe_session(const QoeBenchmarkConfig& config, std::uint64_t seed) {
  // Every config check runs before the world is built, so a bad config
  // throws before anything is simulated.
  if (config.receiver_sites.empty()) throw std::invalid_argument{"need at least one receiver"};
  if (config.media_duration <= SimDuration::zero()) {
    throw std::invalid_argument{"media_duration must be positive"};
  }
  const int padded_w = config.content_width + 2 * config.padding;
  const int padded_h = config.content_height + 2 * config.padding;
  if (padded_w % 8 != 0 || padded_h % 8 != 0) {
    throw std::invalid_argument{"padded feed dimensions must be multiples of 8"};
  }
  const VideoScorer scorer{config.padding, config.content_width, config.content_height,
                           config.score_video ? config.metric_stride : 1};

  const SeedRow& row = kSeedRows[static_cast<std::size_t>(config.seeds)];

  // The platform, then the host VM followed by one VM per receiver site,
  // each behind the ingress cap if there is one.
  SessionWorld world{seed};
  world.add_platform(config.platform, seed ^ row.platform);
  net::Host& host_vm = world.vm(config.host_site, 8);
  const std::vector<net::Host*> rx_vms = world.vms(config.receiver_sites);
  if (!config.cap.is_unlimited()) {
    for (net::Host* vm : rx_vms) {
      vm->set_ingress_shaper(std::make_unique<net::TokenBucketShaper>(
          world.loop(), config.cap, kCapBurstBytes, kCapQueuePackets));
    }
  }

  const auto content = motion_feed(
      config.motion, {config.content_width, config.content_height, config.fps, seed ^ row.content});
  const auto padded = std::make_shared<media::PaddedFeed>(content, config.padding);
  // Synthesized once to play and again as each audio score's reference.
  const auto voice = [&] {
    return media::synthesize_voice(config.media_duration.seconds() + row.voice_tail_s,
                                   seed ^ row.voice);
  };

  client::VcaClient::Config host_cfg = padded_config(
      config.content_width, config.content_height, config.padding, config.fps, seed);
  host_cfg.send_audio = true;
  host_cfg.motion = config.motion;
  // Rates-only runs skip the pixel codec: frame sizes follow the same
  // policy targets either way, and nobody scores pixels.
  host_cfg.synthetic_video = !config.score_video;
  client::VcaClient& host_client = world.client(host_vm, host_cfg);
  client::MediaFeeder& feeder = world.feeder(host_client);
  capture::PacketCapture host_capture{host_vm, world.clock_offset(host_vm)};

  std::vector<client::VcaClient*> receivers;
  std::vector<std::unique_ptr<client::DesktopRecorder>> recorders;
  std::vector<std::unique_ptr<capture::PacketCapture>> captures;
  for (std::size_t i = 0; i < rx_vms.size(); ++i) {
    client::VcaClient::Config cfg = padded_config(config.content_width, config.content_height,
                                                  config.padding, config.fps,
                                                  seed + row.receiver_salt * (i + 1));
    cfg.send_video = false;
    cfg.decode_video = config.score_video;
    receivers.push_back(&world.client(*rx_vms[i], cfg));
    recorders.push_back(std::make_unique<client::DesktopRecorder>(*receivers.back(), config.fps));
    captures.push_back(
        std::make_unique<capture::PacketCapture>(*rx_vms[i], world.clock_offset(*rx_vms[i])));
  }

  SimTime media_start{};
  testbed::SessionOrchestrator::Plan plan;
  plan.host = &host_client;
  plan.participants = receivers;
  plan.media_duration = config.media_duration;
  plan.on_all_joined = [&] {
    media_start = world.network().now();
    feeder.play_video(padded, config.media_duration);
    feeder.play_audio(voice());
    if (config.score_video) {
      for (auto& rec : recorders) rec->start(config.media_duration);
    }
  };
  world.orchestrate(std::move(plan));
  world.run();

  // ---- scoring ----
  QoeSessionResult out;
  const capture::Trace host_trace = host_capture.trace();
  const capture::RateAnalyzer host_rates{host_trace};
  out.upload_kbps = host_rates.average(media_start).upload.as_kbps();

  std::vector<std::optional<media::qoe::VideoQoe>> scores(receivers.size());
  if (config.score_video) {
    std::vector<const media::RecordedVideo*> recordings;
    for (const auto& rec : recorders) recordings.push_back(&rec->video());
    scores = scorer.score(recordings, *content);
  }

  double session_download_acc = 0.0;
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    QoeReceiverResult rx;
    // Rates from the receiver's capture.
    const capture::Trace rx_trace = captures[i]->trace();
    const capture::RateAnalyzer rx_rates{rx_trace};
    rx.download_kbps = rx_rates.average(media_start).download.as_kbps();
    session_download_acc += rx.download_kbps;
    if (const net::TokenBucketShaper* shaper = rx_vms[i]->ingress_shaper()) {
      const auto& st = shaper->stats();
      const double total = static_cast<double>(st.forwarded_bytes + st.dropped_bytes);
      rx.drop_fraction = total > 0 ? static_cast<double>(st.dropped_bytes) / total : 0.0;
    }

    // Delivery ratio (freezes under congestion show up here).
    const auto& st = receivers[i]->stats();
    if (host_client.stats().video_frames_sent > 0) {
      rx.has_delivery_ratio = true;
      rx.delivery_ratio = static_cast<double>(st.video_frames_completed) /
                          static_cast<double>(host_client.stats().video_frames_sent);
    }

    if (const auto& qoe = scores[i]) {
      rx.has_video_qoe = true;
      rx.psnr = qoe->psnr;
      rx.ssim = qoe->ssim;
      rx.vifp = qoe->vifp;
    }
    if (config.score_audio) {
      if (const auto mos = audio_mos(voice(), receivers[i]->received_audio())) {
        rx.has_audio_qoe = true;
        rx.mos_lqo = *mos;
      }
    }
    out.receivers.push_back(rx);
  }
  out.session_download_kbps = session_download_acc / static_cast<double>(receivers.size());
  return out;
}

}  // namespace vc::core
