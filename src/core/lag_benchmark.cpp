#include "core/lag_benchmark.h"

#include <memory>
#include <stdexcept>

#include "capture/endpoint_discovery.h"
#include "capture/lag_detector.h"
#include "core/session_world.h"

namespace vc::core {
namespace {

/// Flash-feed geometry (small frames keep the codec cheap; the signal on the
/// wire is what matters).
constexpr int kFeedWidth = 128;
constexpr int kFeedHeight = 96;

}  // namespace

std::vector<std::string> us_participant_sites(const std::string& host_site) {
  // Seven US VMs total (Table 3): the host plus these six.
  std::vector<std::string> sites = {"US-Central", "US-NCentral", "US-SCentral",
                                    "US-East",    "US-West",     "US-West"};
  if (host_site == "US-West") {
    sites = {"US-Central", "US-NCentral", "US-SCentral", "US-East", "US-East", "US-West"};
  }
  return sites;
}

std::vector<std::string> europe_participant_sites(const std::string& host_site) {
  std::vector<std::string> all = {"CH", "DE", "IE", "NL", "FR", "UK-South", "UK-West"};
  std::vector<std::string> sites;
  bool host_removed = false;
  for (const auto& s : all) {
    if (!host_removed && s == host_site) {
      host_removed = true;
      continue;
    }
    sites.push_back(s);
  }
  if (!host_removed) throw std::invalid_argument{"host site must be one of the Europe sites"};
  return sites;
}

LagBenchmarkResult run_lag_benchmark(const LagBenchmarkConfig& config) {
  if (config.participant_sites.empty()) throw std::invalid_argument{"no participants"};
  SessionWorld world{config.seed, {config.metrics, config.tracer}};
  const std::uint64_t platform_seed = config.seed ^ 0xABC;
  if (config.platform == platform::PlatformId::kWebex &&
      config.webex_tier == platform::WebexTier::kPaid) {
    world.adopt_platform(std::make_unique<platform::WebexPlatform>(
        world.network(), platform_seed, platform::WebexTier::kPaid));
  } else {
    world.add_platform(config.platform, platform_seed);
  }

  // Provision VMs once; they persist across sessions (Meet endpoint
  // stickiness is keyed to the client VM's address).
  net::Host& host_vm = world.vm(config.host_site, 8);
  const std::vector<net::Host*> part_vms = world.vms(config.participant_sites);

  LagBenchmarkResult result;
  result.platform = config.platform;
  result.host_site = config.host_site;
  result.participants.resize(part_vms.size());
  for (std::size_t i = 0; i < part_vms.size(); ++i) {
    result.participants[i].label = part_vms[i]->name();  // site, disambiguated
  }

  std::vector<std::vector<capture::Trace>> session_traces(part_vms.size());
  std::vector<capture::Trace> all_traces;

  const auto feed = std::make_shared<media::FlashFeed>(
      media::FeedParams{kFeedWidth, kFeedHeight, config.fps, config.seed ^ 0xF1A5});

  for (int s = 0; s < config.sessions; ++s) {
    // Fresh clients per session (the controller relaunches the app), same VMs.
    // The lag feed is a one-way video signal.
    client::VcaClient& host_client = world.client(
        host_vm, video_config(kFeedWidth, kFeedHeight, config.fps,
                              config.seed + static_cast<std::uint64_t>(s) * 7919));
    client::MediaFeeder& feeder = world.feeder(host_client);
    capture::PacketCapture host_capture{host_vm, world.clock_offset(host_vm)};

    testbed::SessionOrchestrator::Plan plan;
    plan.host = &host_client;
    std::vector<client::ClientMonitor*> monitors;
    for (std::size_t i = 0; i < part_vms.size(); ++i) {
      plan.participants.push_back(&world.client(
          *part_vms[i], listener_config(config.seed + 31 * i + static_cast<std::uint64_t>(s))));
      client::ClientMonitor::Config mon_cfg;
      mon_cfg.probe_count = static_cast<int>(config.session_duration.seconds()) - 20;
      monitors.push_back(&world.monitor(*part_vms[i], mon_cfg));
    }
    plan.media_duration = config.session_duration;
    plan.on_all_joined = [&] {
      feeder.play_video(feed, config.session_duration);
      for (client::ClientMonitor* m : monitors) m->start_active_probing();
    };
    world.orchestrate(std::move(plan));
    world.run();

    // Harvest this session.
    const capture::Trace sender_trace = host_capture.trace();
    for (std::size_t i = 0; i < part_vms.size(); ++i) {
      capture::Trace rx_trace = monitors[i]->trace();
      capture::LagDetectorConfig lag_cfg;
      lag_cfg.flash_period = seconds_f(feed->period_sec());
      auto lags = capture::measure_streaming_lag_ms(sender_trace, rx_trace, lag_cfg);
      auto& out = result.participants[i];
      out.lags_ms.insert(out.lags_ms.end(), lags.begin(), lags.end());
      if (!monitors[i]->prober().rtts_ms().empty()) {
        out.session_rtt_ms.push_back(monitors[i]->prober().average_ms());
      }
      session_traces[i].push_back(rx_trace);
      all_traces.push_back(rx_trace);
      if (s == config.sessions - 1 && i == 0) {
        result.sample_sender_trace = sender_trace;
        result.sample_receiver_trace = std::move(rx_trace);
      }
    }
    world.end_session();
  }

  double total_endpoints = 0.0;
  for (std::size_t i = 0; i < part_vms.size(); ++i) {
    result.participants[i].distinct_endpoints = capture::distinct_endpoint_ips(session_traces[i]);
    total_endpoints += static_cast<double>(result.participants[i].distinct_endpoints);
  }
  result.mean_distinct_endpoints = total_endpoints / static_cast<double>(part_vms.size());
  result.dominant_media_port = capture::dominant_media_port(all_traces);
  return result;
}

}  // namespace vc::core
