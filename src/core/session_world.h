// The coordinated-deployment testbed every scenario in src/core runs on
// (Section 3.1): the simulated internet, its platforms, VMs, clients,
// monitors and orchestrators, owned and destroyed in a safe order.
//
// Wiring rule: instruments enter at net::Network construction, and
// components take them when built. The world hands its Instruments to the
// bed's network once; relays, codecs, probers, controllers, orchestrators
// and fault plans built on that network resolve theirs from it, and run()
// arms the timeline. Empty Instruments wire nothing. Each VM draws a clock
// offset and takes the next address, so callers keep creation order and
// seed constants fixed at the call site.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/media_feeder.h"
#include "client/monitor.h"
#include "client/vca_client.h"
#include "common/metrics_timeline.h"
#include "fault/fault_plan.h"
#include "media/align.h"
#include "media/feeds.h"
#include "media/qoe/video_metrics.h"
#include "testbed/cloud_testbed.h"
#include "testbed/orchestrator.h"

namespace vc::core {

class SessionWorld {
 public:
  explicit SessionWorld(std::uint64_t seed, Instruments instruments = {})
      : SessionWorld(testbed::CloudTestbed::Config{.seed = seed}, instruments) {}
  explicit SessionWorld(const testbed::CloudTestbed::Config& bed, Instruments instruments = {});
  SessionWorld(const SessionWorld&) = delete;
  SessionWorld& operator=(const SessionWorld&) = delete;

  net::Network& network() { return bed_->network(); }
  net::EventLoop& loop() { return bed_->loop(); }

  /// Adds a platform to the bed; several may share it (fairness).
  platform::BasePlatform& add_platform(platform::PlatformId id, std::uint64_t seed = 7) {
    return adopt_platform(platform::make_platform(id, network(), seed));
  }
  /// Takes a platform built on network() (e.g. Webex's paid tier).
  platform::BasePlatform& adopt_platform(std::unique_ptr<platform::BasePlatform> platform);
  /// Platforms in the order they were added.
  platform::BasePlatform& platform(std::size_t index = 0) { return *platforms_.at(index); }

  /// A VM with an explicit index (see CloudTestbed::create_vm).
  net::Host& vm(const testbed::VmSite& site, int index) { return bed_->create_vm(site, index); }
  net::Host& vm(const std::string& site, int index) {
    return vm(testbed::site_by_name(site), index);
  }
  /// One VM per entry; repeats of a site get indices 0, 1, ... counted
  /// across calls, independent of explicitly indexed VMs.
  std::vector<net::Host*> vms(const std::vector<std::string>& sites);
  SimDuration clock_offset(const net::Host& vm) const { return bed_->clock_offset(vm); }

  /// A client on `platform` (default: the first one added).
  client::VcaClient& client(net::Host& vm, const client::VcaClient::Config& config) {
    return client(vm, platform(), config);
  }
  client::VcaClient& client(net::Host& vm, platform::BasePlatform& platform,
                            const client::VcaClient::Config& config);
  client::MediaFeeder& feeder(client::VcaClient& client);
  /// A monitor on `vm`, with the VM's clock offset.
  client::ClientMonitor& monitor(net::Host& vm, client::ClientMonitor::Config config);

  /// An orchestrator that run() starts, after arming the timeline; or, given
  /// `start_after`, one whose start is scheduled that long from now.
  testbed::SessionOrchestrator& orchestrate(testbed::SessionOrchestrator::Plan plan);
  testbed::SessionOrchestrator& orchestrate(testbed::SessionOrchestrator::Plan plan,
                                            SimDuration start_after);

  /// What a fault plan acts on: the network and the first platform.
  fault::FaultPlan::Bindings bindings() { return {&network(), &platform()}; }

  /// Arms the timeline over [now, now + timeline_horizon], starts pending
  /// orchestrators in creation order, and runs the loop until it drains.
  void run(SimDuration timeline_horizon = SimDuration::zero());

  /// Destroys this session's orchestrators, feeders, monitors and clients;
  /// the bed, platforms and VMs stay for the next session.
  void end_session();

  /// Packets the first platform's relays dropped while crashed.
  std::int64_t crash_dropped();

 private:
  // Destroyed bottom-up: orchestrators, feeders and monitors reference
  // clients or VMs, clients reference platforms, everything the bed.
  std::unique_ptr<testbed::CloudTestbed> bed_;
  std::vector<std::unique_ptr<platform::BasePlatform>> platforms_;
  std::vector<std::unique_ptr<client::VcaClient>> clients_;
  std::vector<std::unique_ptr<client::ClientMonitor>> monitors_;
  std::vector<std::unique_ptr<client::MediaFeeder>> feeders_;
  std::vector<std::unique_ptr<testbed::SessionOrchestrator>> orchestrators_;
  std::vector<testbed::SessionOrchestrator*> pending_starts_;
  std::unordered_map<std::string, int> site_use_;
};

/// Client configs the scenarios share. A listener sends and decodes nothing.
client::VcaClient::Config listener_config(std::uint64_t seed);
/// Streams `width` x `height` video at `fps`; no audio, no decoding.
client::VcaClient::Config video_config(int width, int height, double fps, std::uint64_t seed);
/// video_config for content padded by `padding` on every side (Section 4.3):
/// UI widgets occlude the outer `padding - 8` pixels, never the content.
client::VcaClient::Config padded_config(int content_width, int content_height, int padding,
                                        double fps, std::uint64_t seed);
/// The high-motion tour-guide feed or the low-motion talking head.
std::shared_ptr<const media::VideoFeed> motion_feed(platform::MotionClass motion,
                                                    const media::FeedParams& params);

/// Full-reference video scoring of a session's recordings (Section 4.3):
/// crop each recording's padding (and with it the UI border), align it to
/// the injected content by the best temporal shift (at most 10 frames), then
/// average PSNR, SSIM and VIFp over every `metric_stride`-th aligned pair.
/// All recordings share one reference: each content frame is rendered at
/// most once per call, and only if a shift search or the scoring reads it.
class VideoScorer {
 public:
  /// Throws std::invalid_argument when metric_stride < 1; build the scorer
  /// before simulating so a bad config fails fast.
  VideoScorer(int padding, int content_width, int content_height, int metric_stride);

  /// One score per recording, in order; nullopt for recordings under 12
  /// frames, which cannot be scored. Recordings are cropped one at a time,
  /// and only the frames the scoring pairs are kept past their search.
  std::vector<std::optional<media::qoe::VideoQoe>> score(
      const std::vector<const media::RecordedVideo*>& recordings,
      const media::VideoFeed& content) const;

 private:
  int padding_;
  int content_width_;
  int content_height_;
  int metric_stride_;
};

}  // namespace vc::core
