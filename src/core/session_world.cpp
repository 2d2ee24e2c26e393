#include "core/session_world.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace vc::core {

SessionWorld::SessionWorld(const testbed::CloudTestbed::Config& bed, Instruments instruments)
    : bed_(std::make_unique<testbed::CloudTestbed>(bed, instruments)) {}

platform::BasePlatform& SessionWorld::adopt_platform(
    std::unique_ptr<platform::BasePlatform> platform) {
  return *platforms_.emplace_back(std::move(platform));
}

std::vector<net::Host*> SessionWorld::vms(const std::vector<std::string>& sites) {
  std::vector<net::Host*> out;
  for (const std::string& site : sites) out.push_back(&vm(site, site_use_[site]++));
  return out;
}

client::VcaClient& SessionWorld::client(net::Host& vm, platform::BasePlatform& platform,
                                        const client::VcaClient::Config& config) {
  return *clients_.emplace_back(std::make_unique<client::VcaClient>(vm, platform, config));
}

client::MediaFeeder& SessionWorld::feeder(client::VcaClient& client) {
  return *feeders_.emplace_back(
      std::make_unique<client::MediaFeeder>(loop(), client.video_device(), client.audio_device()));
}

client::ClientMonitor& SessionWorld::monitor(net::Host& vm, client::ClientMonitor::Config config) {
  config.clock_offset = clock_offset(vm);
  return *monitors_.emplace_back(std::make_unique<client::ClientMonitor>(vm, config));
}

testbed::SessionOrchestrator& SessionWorld::orchestrate(testbed::SessionOrchestrator::Plan plan) {
  auto& o = *orchestrators_.emplace_back(
      std::make_unique<testbed::SessionOrchestrator>(std::move(plan)));
  pending_starts_.push_back(&o);
  return o;
}

testbed::SessionOrchestrator& SessionWorld::orchestrate(testbed::SessionOrchestrator::Plan plan,
                                                        SimDuration start_after) {
  testbed::SessionOrchestrator& o = orchestrate(std::move(plan));
  pending_starts_.pop_back();
  loop().schedule_after(start_after, [&o] { o.start(); });
  return o;
}

void SessionWorld::run(SimDuration timeline_horizon) {
  const Instruments& instruments = network().instruments();
  if (instruments.timeline != nullptr && instruments.metrics != nullptr) {
    const SimTime origin = loop().now();
    instruments.timeline->arm(loop(), *instruments.metrics, origin, origin + timeline_horizon);
  }
  for (testbed::SessionOrchestrator* o : pending_starts_) o->start();
  pending_starts_.clear();
  bed_->run_all();
}

void SessionWorld::end_session() {
  orchestrators_.clear();
  feeders_.clear();
  monitors_.clear();
  clients_.clear();
}

std::int64_t SessionWorld::crash_dropped() {
  platform::RelayAllocator& alloc = platform().allocator();
  std::int64_t dropped = 0;
  for (std::size_t i = 0; i < alloc.relays_created(); ++i) {
    dropped += alloc.relay_at(i)->stats().crash_dropped;
  }
  return dropped;
}

client::VcaClient::Config listener_config(std::uint64_t seed) {
  client::VcaClient::Config cfg;
  cfg.send_video = false;
  cfg.send_audio = false;
  cfg.decode_video = false;
  cfg.seed = seed;
  return cfg;
}

client::VcaClient::Config video_config(int width, int height, double fps, std::uint64_t seed) {
  client::VcaClient::Config cfg;
  cfg.send_audio = false;
  cfg.decode_video = false;
  cfg.video_width = width;
  cfg.video_height = height;
  cfg.fps = fps;
  cfg.seed = seed;
  return cfg;
}

client::VcaClient::Config padded_config(int content_width, int content_height, int padding,
                                        double fps, std::uint64_t seed) {
  client::VcaClient::Config cfg = video_config(content_width + 2 * padding,
                                               content_height + 2 * padding, fps, seed);
  cfg.ui_border = padding > 8 ? padding - 8 : 0;
  return cfg;
}

std::shared_ptr<const media::VideoFeed> motion_feed(platform::MotionClass motion,
                                                    const media::FeedParams& params) {
  if (motion == platform::MotionClass::kHighMotion) {
    return std::make_shared<media::TourGuideFeed>(params);
  }
  return std::make_shared<media::TalkingHeadFeed>(params);
}

VideoScorer::VideoScorer(int padding, int content_width, int content_height, int metric_stride)
    : padding_(padding),
      content_width_(content_width),
      content_height_(content_height),
      metric_stride_(metric_stride) {
  if (metric_stride < 1) throw std::invalid_argument{"metric_stride must be >= 1"};
}

std::vector<std::optional<media::qoe::VideoQoe>> VideoScorer::score(
    const std::vector<const media::RecordedVideo*>& recordings,
    const media::VideoFeed& content) const {
  std::size_t longest = 0;
  for (const media::RecordedVideo* recording : recordings) {
    longest = std::max(longest, recording->frames.size());
  }
  media::qoe::ReferenceFrames reference{content, longest};
  std::vector<std::size_t> scored;  // indices of the recordings long enough to score
  std::vector<std::vector<media::Frame>> kept;
  kept.reserve(recordings.size());  // `shifted` points into it
  std::vector<media::qoe::ShiftedRecording> shifted;
  for (std::size_t r = 0; r < recordings.size(); ++r) {
    media::RecordedVideo cropped =
        media::crop_and_resize(*recordings[r], padding_, content_width_, content_height_);
    if (cropped.frames.size() < 12) continue;
    const std::int64_t shift =
        media::best_temporal_shift(reference, cropped.frames, /*max_shift=*/10);
    // Free the frames no scored pair reads: k + shift for k = 0, stride, ….
    for (std::size_t i = 0; i < cropped.frames.size(); ++i) {
      const auto k = static_cast<std::int64_t>(i) - shift;
      if (k < 0 || k % metric_stride_ != 0) cropped.frames[i] = media::Frame{};
    }
    scored.push_back(r);
    shifted.push_back({&kept.emplace_back(std::move(cropped.frames)), shift});
  }
  const std::vector<media::qoe::VideoQoe> means =
      media::qoe::mean_video_qoe(reference, shifted, metric_stride_);
  std::vector<std::optional<media::qoe::VideoQoe>> out(recordings.size());
  for (std::size_t i = 0; i < scored.size(); ++i) out[scored[i]] = means[i];
  return out;
}

}  // namespace vc::core
