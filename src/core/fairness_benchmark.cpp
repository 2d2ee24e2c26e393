#include "core/fairness_benchmark.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/session_world.h"

namespace vc::core {
namespace {

/// Burst of the shared bottleneck's token bucket.
constexpr std::int64_t kBurstBytes = 24'000;
/// Bin width of the per-flow rate timeline used for convergence.
constexpr SimDuration kRateBin = seconds(1);
/// A flow has converged once its binned rate stays within ± this fraction of
/// its steady-state mean (mean of the window's last quarter) for the rest of
/// the run.
constexpr double kConvergenceBand = 0.25;

/// Jain's fairness index: (Σx)² / (n·Σx²); 1 when all equal, 1/n when one
/// flow starves the rest. Empty/zero inputs report 0.
double jain(const std::vector<double>& xs) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (xs.empty() || sum_sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

/// First bin index from which the rate timeline stays inside
/// ± kConvergenceBand × steady; -1 if it never does (or there is no steady
/// rate).
int convergence_bin(const std::vector<double>& rates_kbps, double steady) {
  if (steady <= 0.0 || rates_kbps.empty()) return -1;
  int settled_from = -1;
  for (int i = 0; i < static_cast<int>(rates_kbps.size()); ++i) {
    const bool inside =
        std::abs(rates_kbps[static_cast<std::size_t>(i)] - steady) <= kConvergenceBand * steady;
    if (inside && settled_from < 0) settled_from = i;
    if (!inside) settled_from = -1;
  }
  return settled_from;
}

}  // namespace

std::vector<FairnessFlowConfig> default_fairness_flows(int n) {
  static constexpr platform::PlatformId kPlatforms[] = {
      platform::PlatformId::kZoom, platform::PlatformId::kWebex, platform::PlatformId::kMeet};
  static constexpr abr::AbrKind kKinds[] = {abr::AbrKind::kThroughput, abr::AbrKind::kBuffer,
                                            abr::AbrKind::kMpc};
  static const char* kSites[] = {"US-West", "US-Central", "US-SCentral"};
  std::vector<FairnessFlowConfig> flows;
  for (int i = 0; i < n; ++i) {
    FairnessFlowConfig f;
    f.platform = kPlatforms[i % 3];
    f.abr = kKinds[(i / 3) % 3];
    f.sender_site = kSites[i % 3];
    flows.push_back(f);
  }
  return flows;
}

FairnessBenchmarkResult run_fairness_session(const FairnessBenchmarkConfig& config,
                                             std::uint64_t seed) {
  if (config.flows.size() < 2 || config.flows.size() > 8) {
    throw std::invalid_argument{"fairness benchmark wants 2-8 flows"};
  }
  const int n = static_cast<int>(config.flows.size());
  SessionWorld world{seed};

  // The shared bottleneck: every flow's receiver lives on this VM, behind
  // one ingress shaper. Named after its site so fault plans can target it.
  net::Host& gateway = world.vm(config.gateway_site, 0);
  auto owned_shaper = std::make_unique<net::TokenBucketShaper>(
      world.loop(), config.bottleneck, kBurstBytes,
      static_cast<std::size_t>(config.queue_limit_packets));
  net::TokenBucketShaper* shaper = owned_shaper.get();
  MetricsRegistry shaper_metrics;
  shaper->attach_metrics(shaper_metrics, "bottleneck");
  gateway.set_ingress_shaper(std::move(owned_shaper));

  // Per-flow achieved goodput, binned for the convergence timeline. Taps run
  // post-shaper, so this is what the receivers actually get.
  const std::int64_t bin_us = kRateBin.micros();
  std::vector<std::vector<std::int64_t>> bins(static_cast<std::size_t>(n));
  const std::uint16_t base_port = 47000;
  gateway.add_tap([&bins, bin_us, n, base_port](net::Direction dir, const net::Packet& pkt,
                                                SimTime at) {
    if (dir != net::Direction::kIncoming || pkt.kind != net::StreamKind::kVideo) return;
    if (pkt.dst.port < base_port || pkt.dst.port >= static_cast<int>(base_port) + n) return;
    auto& flow_bins = bins[static_cast<std::size_t>(pkt.dst.port - base_port)];
    const auto bin = static_cast<std::size_t>(at.micros() / bin_us);
    if (flow_bins.size() <= bin) flow_bins.resize(bin + 1, 0);
    flow_bins[bin] += pkt.l7_len;
  });

  // Build the flows: per-flow platform instance, sender VM, receiver client
  // on the gateway (distinct media port), scripted session orchestration.
  // All sessions run concurrently; each flow starts media the moment its own
  // roster completes.
  struct Flow {
    client::VcaClient* sender = nullptr;
    SimTime media_start{};
    bool started = false;
  };
  std::vector<Flow> flows(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const FairnessFlowConfig& fc = config.flows[static_cast<std::size_t>(i)];
    Flow& flow = flows[static_cast<std::size_t>(i)];
    const std::uint64_t flow_seed = seed + static_cast<std::uint64_t>(i) * 4447;

    platform::BasePlatform& flow_platform =
        world.add_platform(fc.platform, seed ^ (0xCABu + static_cast<std::uint64_t>(i) * 0x9E37u));

    net::Host& sender_vm = world.vm(fc.sender_site, 10 + i);

    client::VcaClient::Config tx_cfg = padded_config(config.feed_width, config.feed_height,
                                                     config.padding, config.fps, flow_seed);
    tx_cfg.motion = platform::MotionClass::kHighMotion;
    tx_cfg.abr.kind = fc.abr;
    flow.sender = &world.client(sender_vm, flow_platform, tx_cfg);
    client::MediaFeeder& feeder = world.feeder(*flow.sender);
    const auto feed = std::make_shared<media::TourGuideFeed>(media::FeedParams{
        config.feed_width, config.feed_height, config.fps, flow_seed ^ 0xFEED});

    client::VcaClient::Config rx_cfg = padded_config(config.feed_width, config.feed_height,
                                                     config.padding, config.fps, flow_seed + 77);
    rx_cfg.send_video = false;
    rx_cfg.media_port = static_cast<std::uint16_t>(base_port + i);
    // Delivery feedback riding the receiver's loss reports is what feeds the
    // sender's adapter; plain (kNone) flows skip the bookkeeping entirely.
    rx_cfg.abr_feedback = fc.abr != abr::AbrKind::kNone;

    testbed::SessionOrchestrator::Plan plan;
    plan.host = flow.sender;
    plan.participants = {&world.client(gateway, flow_platform, rx_cfg)};
    plan.media_duration = config.media_duration;
    plan.on_all_joined = [&flow, &feeder, feed, &world, &config, i]() {
      flow.media_start = world.network().now();
      flow.started = true;
      feeder.play_video(std::make_shared<media::PaddedFeed>(feed, config.padding),
                        config.media_duration);
      if (i == 0 && config.use_fault_plan && !config.fault_plan.empty()) {
        config.fault_plan.arm(world.bindings(), world.network().now());
      }
    };
    world.orchestrate(std::move(plan));
  }
  world.run();

  // --- measurement window: all flows streaming ---
  SimTime window_start = SimTime::zero();
  SimTime window_end = SimTime::infinity();
  for (const Flow& flow : flows) {
    if (!flow.started) continue;
    window_start = std::max(window_start, flow.media_start);
    window_end = std::min(window_end, flow.media_start + config.media_duration);
  }
  const std::size_t first_bin = static_cast<std::size_t>(
      (window_start.micros() + bin_us - 1) / bin_us);
  const std::size_t end_bin = static_cast<std::size_t>(window_end.micros() / bin_us);
  const double bin_seconds = static_cast<double>(bin_us) * 1e-6;

  FairnessBenchmarkResult result;
  std::vector<double> rates_kbps;
  RunningStats convergence;
  for (int i = 0; i < n; ++i) {
    const Flow& flow = flows[static_cast<std::size_t>(i)];
    FairnessFlowResult fr;
    fr.platform = config.flows[static_cast<std::size_t>(i)].platform;
    fr.abr = config.flows[static_cast<std::size_t>(i)].abr;

    std::vector<double> timeline;
    std::int64_t total_bytes = 0;
    const auto& flow_bins = bins[static_cast<std::size_t>(i)];
    for (std::size_t b = first_bin; b < end_bin; ++b) {
      const std::int64_t got = b < flow_bins.size() ? flow_bins[b] : 0;
      timeline.push_back(static_cast<double>(got) * 8.0 / bin_seconds / 1000.0);
      total_bytes += got;
    }
    const double window_seconds = static_cast<double>(end_bin - first_bin) * bin_seconds;
    fr.achieved_kbps =
        window_seconds > 0.0 ? static_cast<double>(total_bytes) * 8.0 / window_seconds / 1000.0
                             : 0.0;

    // Steady state = mean of the window's last quarter; convergence = when
    // the timeline enters (and stays in) its ± band.
    if (!timeline.empty()) {
      const std::size_t tail_start = timeline.size() - std::max<std::size_t>(1, timeline.size() / 4);
      RunningStats tail;
      for (std::size_t b = tail_start; b < timeline.size(); ++b) tail.add(timeline[b]);
      const int bin0 = convergence_bin(timeline, tail.mean());
      if (bin0 >= 0) {
        fr.convergence_seconds = static_cast<double>(bin0) * bin_seconds;
        convergence.add(fr.convergence_seconds);
      }
    }

    fr.abr_decisions = flow.sender->stats().abr_decisions;
    fr.abr_tier_switches = flow.sender->stats().abr_tier_switches;
    fr.final_target_kbps = flow.sender->current_video_target().as_kbps();
    rates_kbps.push_back(fr.achieved_kbps);
    result.flows.push_back(fr);
  }

  double sum_kbps = 0.0;
  for (double r : rates_kbps) sum_kbps += r;
  for (auto& fr : result.flows) fr.share = sum_kbps > 0.0 ? fr.achieved_kbps / sum_kbps : 0.0;
  result.jain_index = jain(rates_kbps);
  result.utilization = sum_kbps / config.bottleneck.as_kbps();
  if (!convergence.empty()) result.convergence_mean_seconds = convergence.mean();

  const auto& st = shaper->stats();
  const double offered = static_cast<double>(st.forwarded_bytes + st.dropped_bytes);
  result.drop_fraction = offered > 0.0 ? static_cast<double>(st.dropped_bytes) / offered : 0.0;
  result.queue_delay_mean_ms = shaper_metrics.histogram("bottleneck.queue_delay_ms").stats().mean();
  result.queue_delay_max_ms = st.max_queue_delay.millis();

  gateway.set_ingress_shaper(nullptr);
  return result;
}

}  // namespace vc::core
