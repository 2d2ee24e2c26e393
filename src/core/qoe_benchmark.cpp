#include "core/qoe_benchmark.h"

#include <memory>
#include <stdexcept>

#include "capture/rate_analyzer.h"
#include "client/recorder.h"
#include "core/session_world.h"

namespace vc::core {
namespace {

/// The long-lived testbed both entry points share: the platform, then the
/// host VM followed by one VM per receiver site.
std::vector<net::Host*> provision(SessionWorld& world, const QoeBenchmarkConfig& config,
                                  std::uint64_t seed) {
  world.add_platform(config.platform, {.seed = seed ^ 0xBEEF});
  std::vector<net::Host*> vms{&world.vm(config.host_site, 8)};
  for (net::Host* vm : world.vms(config.receiver_sites)) vms.push_back(vm);
  return vms;
}

/// One broadcast session from vms[0] to the rest of the provisioned VMs.
/// Shared by the aggregate benchmark (persistent bed/VMs across sessions,
/// like the paper's long-lived testbed) and the self-contained per-seed
/// entry point.
QoeSessionResult run_one_session(const QoeBenchmarkConfig& config, SessionWorld& world,
                                 const std::vector<net::Host*>& vms, std::uint64_t feed_seed,
                                 std::uint64_t session_seed) {
  // Built first, so a bad metric_stride throws before anything is simulated.
  const VideoScorer scorer{config.padding, config.content_width, config.content_height,
                           config.score_video ? config.metric_stride : 1};
  const auto content = motion_feed(
      config.motion, {config.content_width, config.content_height, config.fps, feed_seed});
  const auto padded = std::make_shared<media::PaddedFeed>(content, config.padding);
  net::Host& host_vm = *vms[0];

  client::VcaClient::Config host_cfg = padded_config(
      config.content_width, config.content_height, config.padding, config.fps, session_seed);
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
  for (std::size_t i = 1; i < vms.size(); ++i) {
    client::VcaClient::Config cfg = padded_config(config.content_width, config.content_height,
                                                  config.padding, config.fps,
                                                  session_seed + 17 * i);
    cfg.send_video = false;
    cfg.decode_video = config.score_video;
    receivers.push_back(&world.client(*vms[i], cfg));
    recorders.push_back(std::make_unique<client::DesktopRecorder>(*receivers.back(), config.fps));
    captures.push_back(
        std::make_unique<capture::PacketCapture>(*vms[i], world.clock_offset(*vms[i])));
  }

  SimTime media_start{};
  testbed::SessionOrchestrator::Plan plan;
  plan.host = &host_client;
  plan.participants = receivers;
  plan.media_duration = config.media_duration;
  plan.on_all_joined = [&] {
    media_start = world.network().now();
    feeder.play_video(padded, config.media_duration);
    const double audio_sec = config.media_duration.seconds();
    feeder.play_audio(media::synthesize_voice(audio_sec, session_seed ^ 0xA0D10));
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

  double session_download_acc = 0.0;
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    QoeReceiverResult rx;
    // Rates from the receiver's capture.
    const capture::Trace rx_trace = captures[i]->trace();
    const capture::RateAnalyzer rx_rates{rx_trace};
    rx.download_kbps = rx_rates.average(media_start).download.as_kbps();
    session_download_acc += rx.download_kbps;

    // Delivery ratio (freezes under congestion show up here).
    const auto& st = receivers[i]->stats();
    if (host_client.stats().video_frames_sent > 0) {
      rx.has_delivery_ratio = true;
      rx.delivery_ratio = static_cast<double>(st.video_frames_completed) /
                          static_cast<double>(host_client.stats().video_frames_sent);
    }

    if (config.score_video) {
      if (const auto qoe = scorer.score(recorders[i]->video(), *content)) {
        rx.has_video_qoe = true;
        rx.psnr = qoe->psnr;
        rx.ssim = qoe->ssim;
        rx.vifp = qoe->vifp;
      }
    }
    out.receivers.push_back(rx);
  }
  out.session_download_kbps = session_download_acc / static_cast<double>(receivers.size());
  return out;
}

void validate_geometry(const QoeBenchmarkConfig& config) {
  if (config.receiver_sites.empty()) throw std::invalid_argument{"need at least one receiver"};
  const int padded_w = config.content_width + 2 * config.padding;
  const int padded_h = config.content_height + 2 * config.padding;
  if (padded_w % 8 != 0 || padded_h % 8 != 0) {
    throw std::invalid_argument{"padded feed dimensions must be multiples of 8"};
  }
}

}  // namespace

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

QoeBenchmarkResult run_qoe_benchmark(const QoeBenchmarkConfig& config) {
  validate_geometry(config);
  SessionWorld world{config.seed};
  const std::vector<net::Host*> vms = provision(world, config, config.seed);

  QoeBenchmarkResult result;
  result.platform = config.platform;
  result.motion = config.motion;
  result.receivers = static_cast<int>(vms.size()) - 1;

  for (int s = 0; s < config.sessions; ++s) {
    const std::uint64_t session_seed = config.seed + static_cast<std::uint64_t>(s) * 6151;
    const QoeSessionResult session =
        run_one_session(config, world, vms, config.seed ^ 0xC0FFEE, session_seed);
    world.end_session();
    result.upload_kbps.add(session.upload_kbps);
    for (const QoeReceiverResult& rx : session.receivers) {
      result.download_kbps.add(rx.download_kbps);
      if (rx.has_delivery_ratio) result.delivery_ratio.add(rx.delivery_ratio);
      if (rx.has_video_qoe) {
        result.psnr.add(rx.psnr);
        result.ssim.add(rx.ssim);
        result.vifp.add(rx.vifp);
      }
    }
    result.session_download_kbps.push_back(session.session_download_kbps);
  }
  return result;
}

QoeSessionResult run_qoe_session(const QoeBenchmarkConfig& config, std::uint64_t seed) {
  validate_geometry(config);
  SessionWorld world{seed};
  const std::vector<net::Host*> vms = provision(world, config, seed);
  return run_one_session(config, world, vms, seed ^ 0xC0FFEE, seed);
}

}  // namespace vc::core
