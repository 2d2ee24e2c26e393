// The session-world builder: VM provisioning matches a hand-built testbed,
// and every component it builds reports to the instruments it was given.
// The construction rule holds without SessionWorld too: a world wired by
// hand on an instrumented network reports with no further call.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>

#include "core/session_world.h"

namespace vc::core {
namespace {

struct TwoPartyRun {
  client::VcaClient::Stats host;
  client::VcaClient::Stats receiver;
  std::int64_t packets_sent = 0;
};

/// Every Stats field, comparable and printable as one value.
auto stats_fields(const client::VcaClient::Stats& s) {
  return std::tie(s.video_frames_sent, s.video_frames_completed, s.video_frames_lost,
                  s.audio_frames_sent, s.audio_frames_received, s.loss_reports_sent,
                  s.probe_replies, s.abr_decisions, s.abr_tier_switches);
}

/// A Webex two-party call (always relayed) with a real pixel encode; a
/// timeline in `instruments` samples over [0, timeline_horizon].
TwoPartyRun run_two_party(Instruments instruments,
                          SimDuration timeline_horizon = SimDuration::zero()) {
  SessionWorld world{5, instruments};
  world.add_platform(platform::PlatformId::kWebex, 5);
  net::Host& host_vm = world.vm("US-East", 0);
  net::Host& rx_vm = world.vm("US-West", 0);

  client::VcaClient::Config cfg;
  cfg.send_audio = false;
  cfg.decode_video = false;
  cfg.video_width = 64;
  cfg.video_height = 48;
  cfg.fps = 10.0;
  client::VcaClient& host = world.client(host_vm, cfg);
  cfg.send_video = false;
  client::VcaClient& receiver = world.client(rx_vm, cfg);
  client::MediaFeeder& feeder = world.feeder(host);
  const auto feed = std::make_shared<media::FlashFeed>(media::FeedParams{64, 48, 10.0, 1});

  testbed::SessionOrchestrator::Plan plan;
  plan.host = &host;
  plan.participants = {&receiver};
  plan.media_duration = seconds(3);
  plan.on_all_joined = [&] { feeder.play_video(feed, seconds(3)); };
  world.orchestrate(std::move(plan));
  world.run(timeline_horizon);
  return TwoPartyRun{host.stats(), receiver.stats(), world.network().stats().packets_sent};
}

TEST(SessionWorld, VmsDisambiguateRepeatedSitesLikeAHandBuiltBed) {
  SessionWorld world{42};
  net::Host& explicit_vm = world.vm("US-East", 8);
  const std::vector<net::Host*> vms = world.vms({"US-East", "US-East"});
  ASSERT_EQ(vms.size(), 2u);
  EXPECT_EQ(vms[0]->name(), "US-East");    // index 0
  EXPECT_EQ(vms[1]->name(), "US-East-2");  // index 1
  EXPECT_NE(vms[0]->ip(), vms[1]->ip());

  testbed::CloudTestbed bed{42};
  net::Host& hand_explicit = bed.create_vm(testbed::site_by_name("US-East"), 8);
  net::Host& hand0 = bed.create_vm(testbed::site_by_name("US-East"), 0);
  net::Host& hand1 = bed.create_vm(testbed::site_by_name("US-East"), 1);
  EXPECT_EQ(world.clock_offset(explicit_vm), bed.clock_offset(hand_explicit));
  EXPECT_EQ(world.clock_offset(*vms[0]), bed.clock_offset(hand0));
  EXPECT_EQ(world.clock_offset(*vms[1]), bed.clock_offset(hand1));
  EXPECT_EQ(vms[1]->ip(), hand1.ip());
}

TEST(SessionWorld, WiresNetworkRelaysAndCodecsToTheInstruments) {
  MetricsRegistry metrics;
  Tracer tracer{1u << 18};
  run_two_party({&metrics, &tracer});

  EXPECT_GT(metrics.counter("net.loop.events_executed").value(), 0);
  EXPECT_GT(metrics.counter("net.link.packets_sent").value(), 0);
  EXPECT_GT(metrics.counter("relay.media_in").value(), 0);
  EXPECT_GT(metrics.counter("codec.video.frames_encoded").value(), 0);
  EXPECT_EQ(metrics.counter("session.completed").value(), 1);

  int link = 0;
  int relay = 0;
  int codec = 0;
  tracer.for_each([&](const Tracer::Record& r) {
    const std::string_view name{r.name};
    link += name.starts_with("net.link.");
    relay += name.starts_with("relay.");
    codec += name.starts_with("codec.");
  });
  EXPECT_GT(link, 0);
  EXPECT_GT(relay, 0);
  EXPECT_GT(codec, 0);
}

TEST(SessionWorld, HandBuiltWorldTakesInstrumentsFromItsNetwork) {
  MetricsRegistry metrics;
  Tracer tracer{1u << 18};
  testbed::CloudTestbed bed{testbed::CloudTestbed::Config{.seed = 5}, {&metrics, &tracer}};
  const auto platform =
      platform::make_platform(platform::PlatformId::kWebex, bed.network(), 5);
  net::Host& host_vm = bed.create_vm(testbed::site_by_name("US-East"), 0);
  net::Host& rx_vm = bed.create_vm(testbed::site_by_name("US-West"), 0);

  client::VcaClient::Config cfg;
  cfg.send_audio = false;
  cfg.decode_video = false;
  cfg.video_width = 160;
  cfg.video_height = 120;
  cfg.fps = 10.0;
  client::VcaClient host{host_vm, *platform, cfg};
  cfg.send_video = false;
  client::VcaClient receiver{rx_vm, *platform, cfg};
  client::MediaFeeder feeder{bed.loop(), host.video_device(), host.audio_device()};
  client::ClientMonitor monitor{rx_vm,
                                {.clock_offset = bed.clock_offset(rx_vm),
                                 .discovery_delay = seconds(1),
                                 .probe_interval = millis(200),
                                 .probe_count = 5}};
  fault::FaultPlan cap;
  cap.link_rate(SimDuration::zero(), rx_vm.name(), DataRate::mbps(5));
  cap.arm({&bed.network(), platform.get()}, bed.loop().now());

  const auto feed = std::make_shared<media::FlashFeed>(media::FeedParams{160, 120, 10.0, 1});
  testbed::SessionOrchestrator::Plan plan;
  plan.host = &host;
  plan.participants = {&receiver};
  plan.media_duration = seconds(5);
  plan.on_all_joined = [&] {
    feeder.play_video(feed, seconds(5));
    monitor.start_active_probing();
  };
  testbed::SessionOrchestrator orchestrator{std::move(plan)};
  orchestrator.start();
  bed.run_all();

  for (const std::string name :
       {"net.loop.events_executed", "relay.media_in", "codec.video.frames_encoded",
        "rtt.probe.sent", "session.completed", "net.link.US-West.forwarded_packets"}) {
    ASSERT_TRUE(metrics.counters().contains(name)) << name;
    EXPECT_GT(metrics.counters().at(name).value(), 0) << name;
  }

  int link = 0;
  int relay = 0;
  int codec = 0;
  int probe = 0;
  tracer.for_each([&](const Tracer::Record& r) {
    const std::string_view name{r.name};
    link += name.starts_with("net.link.");
    relay += name.starts_with("relay.");
    codec += name.starts_with("codec.");
    probe += name.starts_with("rtt.probe");
  });
  EXPECT_GT(link, 0);
  EXPECT_GT(relay, 0);
  EXPECT_GT(codec, 0);
  EXPECT_GT(probe, 0);
}

TEST(SessionWorld, EmptyInstrumentsRegisterNothingAndObserveOnly) {
  MetricsRegistry untouched;
  const TwoPartyRun bare = run_two_party({});
  EXPECT_TRUE(untouched.counters().empty());
  EXPECT_TRUE(untouched.gauges().empty());
  EXPECT_TRUE(untouched.histograms().empty());
  SessionWorld world{5};
  EXPECT_EQ(world.network().instruments().tracer, nullptr);

  // Instruments only observe: the instrumented run behaves identically.
  MetricsRegistry metrics;
  const TwoPartyRun wired = run_two_party({.metrics = &metrics});
  EXPECT_GT(bare.host.video_frames_sent, 0);
  EXPECT_EQ(wired.host.video_frames_sent, bare.host.video_frames_sent);
  EXPECT_EQ(wired.receiver.video_frames_completed, bare.receiver.video_frames_completed);
  EXPECT_EQ(wired.packets_sent, bare.packets_sent);

  // All three attached, the sampler armed past the end of the call: the
  // tracer records and the timeline samples, and the call is still the same.
  MetricsRegistry all_metrics;
  Tracer tracer{1u << 18};
  MetricsTimeline timeline{MetricsTimeline::Config{millis(50), 256}};
  const TwoPartyRun all = run_two_party(
      {.metrics = &all_metrics, .tracer = &tracer, .timeline = &timeline}, seconds(10));
  EXPECT_GT(tracer.recorded(), 0u);
  EXPECT_EQ(timeline.total_samples(), 201u);  // every 50 ms over [0, 10 s]
  EXPECT_EQ(stats_fields(all.host), stats_fields(bare.host));
  EXPECT_EQ(stats_fields(all.receiver), stats_fields(bare.receiver));
  EXPECT_EQ(all.packets_sent, bare.packets_sent);
}

TEST(VideoScorer, RejectsNonPositiveStride) {
  EXPECT_THROW((VideoScorer{16, 128, 96, 0}), std::invalid_argument);
  EXPECT_THROW((VideoScorer{16, 128, 96, -3}), std::invalid_argument);
  EXPECT_NO_THROW((VideoScorer{16, 128, 96, 1}));
}

/// Forwards to a feed and counts how often each frame is rendered.
class CountingFeed final : public media::VideoFeed {
 public:
  explicit CountingFeed(const media::VideoFeed& inner) : inner_(inner) {}
  int width() const override { return inner_.width(); }
  int height() const override { return inner_.height(); }
  double fps() const override { return inner_.fps(); }
  media::Frame frame_at(std::int64_t index) const override {
    ++renders[index];
    return inner_.frame_at(index);
  }

  mutable std::map<std::int64_t, int> renders;

 private:
  const media::VideoFeed& inner_;
};

// Three receivers share one reference: each content frame is rendered at
// most once per session, and only if a shift search probes it or a scored
// pair reads it. Scoring each recording on its own rendered all of them.
TEST(VideoScorer, RendersEachReferenceFrameAtMostOnce) {
  constexpr int kPad = 8;
  constexpr int kStride = 3;
  constexpr std::int64_t kMaxShift = 10;  // VideoScorer's search range
  constexpr std::int64_t kProbes = 20;    // best_temporal_shift's default
  const auto content = std::make_shared<media::TalkingHeadFeed>(media::FeedParams{64, 48, 10.0, 4});
  const media::PaddedFeed padded{content, kPad};
  const std::vector<std::pair<int, int>> length_and_lag = {{40, 2}, {33, 5}, {27, 0}};
  std::vector<media::RecordedVideo> recordings;
  std::set<std::int64_t> read;  // every reference index a search or a scored pair reads
  for (const auto& [length, lag] : length_and_lag) {
    media::RecordedVideo& rec = recordings.emplace_back();
    for (int i = 0; i < length; ++i) {
      rec.frames.push_back(i < lag ? media::Frame{padded.width(), padded.height(), 16}
                                   : padded.frame_at(i - lag));
    }
    for (std::int64_t shift = 0; shift <= kMaxShift; ++shift) {
      const std::int64_t common = length - shift;
      for (std::int64_t i = 0; i < common; i += std::max<std::int64_t>(1, common / kProbes)) {
        read.insert(i);
      }
    }
    for (std::int64_t k = 0; k < length - lag; k += kStride) read.insert(k);
  }

  const CountingFeed counted{*content};
  const auto scores = VideoScorer{kPad, 64, 48, kStride}.score(
      {&recordings[0], &recordings[1], &recordings[2]}, counted);
  ASSERT_EQ(scores.size(), 3u);
  for (const auto& q : scores) {
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->psnr, 100.0);  // every lag was found: each scored pair is exact
  }
  int total = 0;
  for (const auto& [index, count] : counted.renders) {
    EXPECT_EQ(count, 1) << "frame " << index;
    EXPECT_TRUE(read.count(index) == 1) << "frame " << index << " is read by nothing";
    total += count;
  }
  EXPECT_LE(total, 40);  // no more than the longest recording
}

}  // namespace
}  // namespace vc::core
