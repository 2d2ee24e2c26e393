// The session-world builder: VM provisioning matches a hand-built testbed,
// and every component it builds reports to the instruments it was given.
// The construction rule holds without SessionWorld too: a world wired by
// hand on an instrumented network reports with no further call.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "core/session_world.h"

namespace vc::core {
namespace {

struct TwoPartyRun {
  client::VcaClient::Stats host;
  client::VcaClient::Stats receiver;
  std::int64_t packets_sent = 0;
};

/// A Webex two-party call (always relayed) with a real pixel encode.
TwoPartyRun run_two_party(Instruments instruments) {
  SessionWorld world{5, instruments};
  world.add_platform(platform::PlatformId::kWebex, {.seed = 5});
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
  world.run();
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
  tracer.set_enabled(true);
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
  tracer.set_enabled(true);
  testbed::CloudTestbed bed{testbed::CloudTestbed::Config{.seed = 5}, {&metrics, &tracer}};
  const auto platform =
      platform::make_platform(platform::PlatformId::kWebex, bed.network(), {.seed = 5});
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
}

TEST(VideoScorer, RejectsNonPositiveStride) {
  EXPECT_THROW((VideoScorer{16, 128, 96, 0}), std::invalid_argument);
  EXPECT_THROW((VideoScorer{16, 128, 96, -3}), std::invalid_argument);
  EXPECT_NO_THROW((VideoScorer{16, 128, 96, 1}));
}

}  // namespace
}  // namespace vc::core
