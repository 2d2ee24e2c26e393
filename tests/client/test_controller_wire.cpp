// Controller workflow states and the wire-rate (FEC padding) model.
#include <gtest/gtest.h>

#include <memory>

#include "client/controller.h"
#include "client/media_feeder.h"
#include "client/vca_client.h"
#include "capture/trace.h"
#include "capture/rate_analyzer.h"
#include "capture/lag_detector.h"
#include "media/feeds.h"
#include "platform/base_platform.h"

namespace vc::client {
namespace {

const GeoPoint kVirginia{38.9, -77.4};

struct ControllerFixture : public ::testing::Test {
  ControllerFixture() : net(std::make_unique<net::FixedLatencyModel>(millis(10)), 1) {}

  VcaClient::Config cfg(bool sender) {
    VcaClient::Config c;
    c.send_video = sender;
    c.send_audio = false;
    c.decode_video = false;
    c.video_width = 128;
    c.video_height = 96;
    c.fps = 10.0;
    return c;
  }

  net::Network net;
};

TEST_F(ControllerFixture, HostWorkflowProgressesThroughStates) {
  platform::WebexPlatform webex{net};
  net::Host& vm = net.add_host("host", kVirginia);
  VcaClient client{vm, webex, cfg(true)};
  ClientController controller{client};
  EXPECT_EQ(controller.state(), ClientController::State::kIdle);

  platform::MeetingId created = 0;
  controller.start_host([&](platform::MeetingId id) { created = id; });
  EXPECT_EQ(controller.state(), ClientController::State::kLaunching);
  net.loop().run_until(SimTime::zero() + seconds(20));
  EXPECT_EQ(controller.state(), ClientController::State::kInMeeting);
  EXPECT_NE(created, 0u);
  EXPECT_TRUE(client.in_meeting());
  client.leave();
  net.loop().run();
}

TEST_F(ControllerFixture, JoinWorkflowAndLeaveAfter) {
  platform::WebexPlatform webex{net};
  net::Host& host_vm = net.add_host("host", kVirginia);
  net::Host& p_vm = net.add_host("p", kVirginia);
  VcaClient host{host_vm, webex, cfg(true)};
  VcaClient participant{p_vm, webex, cfg(false)};
  const auto meeting = host.create_meeting();

  ClientController controller{participant};
  bool joined = false;
  controller.start_join(meeting, [&] { joined = true; });
  net.loop().run_until(SimTime::zero() + seconds(10));
  EXPECT_TRUE(joined);
  EXPECT_EQ(controller.state(), ClientController::State::kInMeeting);
  EXPECT_TRUE(participant.in_meeting());
  // Leaving is the client's own call (the orchestrator makes it at session
  // end); the scripted workflow is over once in meeting.
  participant.leave();
  EXPECT_FALSE(participant.in_meeting());
  host.leave();
  net.loop().run();
}

TEST_F(ControllerFixture, ActiveContentIsPaddedToWireRate) {
  // The FEC/padding model: camera content occupies the full policy wire rate
  // even though the codec payload is a fraction of it.
  platform::WebexPlatform webex{net};
  net::Host& host_vm = net.add_host("host", kVirginia);
  net::Host& rx_vm = net.add_host("rx", kVirginia);
  VcaClient host{host_vm, webex, cfg(true)};
  VcaClient rx{rx_vm, webex, cfg(false)};
  MediaFeeder feeder{net.loop(), host.video_device(), host.audio_device()};
  capture::PacketCapture rx_cap{rx_vm};
  const auto meeting = host.create_meeting();
  rx.join(meeting);
  auto feed = std::make_shared<media::TourGuideFeed>(media::FeedParams{128, 96, 10.0, 5});
  feeder.play_video(feed, seconds(10));
  net.loop().run_until(SimTime::zero() + seconds(11));
  const auto rate =
      capture::RateAnalyzer{rx_cap.trace()}.average(SimTime::zero() + seconds(2)).download;
  // Webex high-motion wire rate ≈ 1.9 Mbps, far above the codec's own need
  // for this small frame.
  EXPECT_GT(rate.as_kbps(), 1'500.0);
  rx.leave();
  host.leave();
  net.loop().run();
}

TEST_F(ControllerFixture, DormantContentIsNeverPadded) {
  // The flash feed's blank periods must stay quiet on the wire even though
  // padding is enabled — this is what keeps the lag method alive.
  platform::ZoomPlatform zoom{net};
  net::Host& host_vm = net.add_host("host", kVirginia);
  net::Host& rx_vm = net.add_host("rx", kVirginia);
  net::Host& rx2_vm = net.add_host("rx2", kVirginia);
  VcaClient host{host_vm, zoom, cfg(true)};
  VcaClient rx{rx_vm, zoom, cfg(false)};
  VcaClient rx2{rx2_vm, zoom, cfg(false)};
  MediaFeeder feeder{net.loop(), host.video_device(), host.audio_device()};
  capture::PacketCapture rx_cap{rx_vm};
  const auto meeting = host.create_meeting();
  rx.join(meeting);
  rx2.join(meeting);
  auto feed = std::make_shared<media::FlashFeed>(media::FeedParams{128, 96, 10.0, 5});
  feeder.play_video(feed, seconds(12));
  net.loop().run_until(SimTime::zero() + seconds(13));
  const auto events =
      capture::detect_flash_events(rx_cap.trace(), net::Direction::kIncoming);
  EXPECT_GE(events.size(), 4u);  // flashes still stand out above quiescence
  rx2.leave();
  rx.leave();
  host.leave();
  net.loop().run();
}

}  // namespace
}  // namespace vc::client
