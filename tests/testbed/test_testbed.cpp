#include <gtest/gtest.h>

#include <memory>

#include "client/controller.h"
#include "common/stats.h"
#include "client/media_feeder.h"
#include "platform/base_platform.h"
#include "testbed/cloud_testbed.h"
#include "testbed/locations.h"
#include "testbed/orchestrator.h"

namespace vc::testbed {
namespace {

TEST(Locations, Table3Complete) {
  const auto& sites = table3_sites();
  EXPECT_EQ(sites.size(), 12u);
  int total_vms = 0;
  for (const auto& s : sites) total_vms += s.count;
  EXPECT_EQ(total_vms, 14);  // 7 US + 7 Europe VMs
  EXPECT_EQ(us_sites().size(), 5u);
  EXPECT_EQ(europe_sites().size(), 7u);
}

TEST(Locations, LookupByName) {
  EXPECT_EQ(site_by_name("US-East").count, 2);
  EXPECT_EQ(site_by_name("CH").region, "Europe");
  EXPECT_THROW(site_by_name("Mars"), std::invalid_argument);
}

TEST(Locations, ResidentialSiteIsEastCoast) {
  const auto& home = residential_us_east();
  EXPECT_LT(great_circle_km(home.geo, site_by_name("US-East").geo), 500.0);
}

TEST(CloudTestbed, CreatesNamedVms) {
  CloudTestbed bed{1};
  net::Host& a = bed.create_vm(site_by_name("US-East"), 0);
  net::Host& b = bed.create_vm(site_by_name("US-East"), 1);
  EXPECT_EQ(a.name(), "US-East");
  EXPECT_EQ(b.name(), "US-East-2");
  EXPECT_NE(a.ip(), b.ip());
}

TEST(CloudTestbed, ClockOffsetsSmallAndVaried) {
  CloudTestbed bed{2};
  RunningStats offsets;
  for (int i = 0; i < 30; ++i) {
    net::Host& vm = bed.create_vm(site_by_name("US-West"), i);
    offsets.add(bed.clock_offset(vm).millis());
  }
  // Cloud-grade sync: sub-2ms offsets, not all identical.
  EXPECT_LT(std::abs(offsets.mean()), 0.5);
  EXPECT_GT(offsets.stddev(), 0.05);
  EXPECT_LT(offsets.max(), 2.0);
}

TEST(CloudTestbed, UnknownHostHasZeroOffset) {
  CloudTestbed bed{3};
  net::Host& outside = bed.network().add_host("outside", GeoPoint{0, 0});
  EXPECT_EQ(bed.clock_offset(outside), SimDuration::zero());
}

TEST(Controller, WorkflowTimingsPerPlatform) {
  const auto zoom = client::default_script(platform::PlatformId::kZoom);
  const auto webex = client::default_script(platform::PlatformId::kWebex);
  // The native Zoom client launches faster than the Webex web client.
  EXPECT_LT(zoom.launch, webex.launch);
}

struct OrchestratorFixture : public ::testing::Test {
  OrchestratorFixture()
      : bed(CloudTestbed::Config{.seed = 7}, {&metrics}),
        platform(std::make_unique<platform::WebexPlatform>(bed.network())) {}

  client::VcaClient::Config cfg(bool sender) {
    client::VcaClient::Config c;
    c.send_video = sender;
    c.send_audio = false;
    c.video_width = 64;
    c.video_height = 64;
    c.fps = 10.0;
    c.synthetic_video = sender;  // keep the test cheap
    return c;
  }

  MetricsRegistry metrics;
  CloudTestbed bed;
  std::unique_ptr<platform::WebexPlatform> platform;
};

TEST_F(OrchestratorFixture, RunsFullSessionLifecycle) {
  net::Host& host_vm = bed.create_vm(site_by_name("US-East"), 0);
  net::Host& p1_vm = bed.create_vm(site_by_name("US-West"), 0);
  net::Host& p2_vm = bed.create_vm(site_by_name("CH"), 0);
  client::VcaClient host{host_vm, *platform, cfg(true)};
  client::VcaClient p1{p1_vm, *platform, cfg(false)};
  client::VcaClient p2{p2_vm, *platform, cfg(false)};

  bool joined_fired = false;
  bool done_fired = false;
  SessionOrchestrator::Plan plan;
  plan.host = &host;
  plan.participants = {&p1, &p2};
  plan.media_duration = seconds(5);
  plan.on_all_joined = [&] {
    joined_fired = true;
    EXPECT_TRUE(host.in_meeting());
    EXPECT_TRUE(p1.in_meeting());
    EXPECT_TRUE(p2.in_meeting());
    EXPECT_EQ(platform->participant_count(host.meeting_id()), 3);
  };
  plan.on_done = [&](const SessionOutcome& outcome) {
    done_fired = true;
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.missing_participants.empty());
  };
  SessionOrchestrator orchestrator{std::move(plan)};
  orchestrator.start();
  bed.run_all();

  EXPECT_TRUE(joined_fired);
  EXPECT_TRUE(done_fired);
  EXPECT_TRUE(orchestrator.finished());
  EXPECT_FALSE(host.in_meeting());
  EXPECT_FALSE(p1.in_meeting());
  EXPECT_GT(host.stats().video_frames_sent, 30);
}

TEST_F(OrchestratorFixture, HostOnlySessionCompletes) {
  net::Host& host_vm = bed.create_vm(site_by_name("US-East"), 0);
  client::VcaClient host{host_vm, *platform, cfg(true)};
  SessionOrchestrator::Plan plan;
  plan.host = &host;
  plan.media_duration = seconds(2);
  bool done = false;
  plan.on_done = [&](const SessionOutcome& outcome) { done = outcome.ok; };
  SessionOrchestrator orchestrator{std::move(plan)};
  orchestrator.start();
  bed.run_all();
  EXPECT_TRUE(done);
}

TEST_F(OrchestratorFixture, RequiresHost) {
  SessionOrchestrator::Plan plan;
  EXPECT_THROW(SessionOrchestrator{std::move(plan)}, std::invalid_argument);
}

// Regression (join-timeout deadlock): a participant whose join workflow never
// completes within the timeout used to leave finished_ false forever — the
// media phase simply never started and on_done never fired. Now the session
// fails, names the missing participants, and the event loop drains.
TEST_F(OrchestratorFixture, JoinTimeoutFailsSessionAndReportsMissing) {
  net::Host& host_vm = bed.create_vm(site_by_name("US-East"), 0);
  net::Host& p1_vm = bed.create_vm(site_by_name("US-West"), 0);
  net::Host& p2_vm = bed.create_vm(site_by_name("CH"), 0);
  client::VcaClient host{host_vm, *platform, cfg(true)};
  client::VcaClient p1{p1_vm, *platform, cfg(false)};
  client::VcaClient p2{p2_vm, *platform, cfg(false)};

  // The host's scripted workflow takes ~8.5 s (Webex); give the second
  // participant a join step that can never beat the timeout — the analog of
  // a join callback that never fires.
  client::ClientController::Script script = client::default_script(platform::PlatformId::kWebex);

  bool done_fired = false;
  bool joined_fired = false;
  SessionOutcome seen;
  SessionOrchestrator::Plan plan;
  plan.host = &host;
  plan.participants = {&p1, &p2};
  plan.join_stagger = seconds(30);  // p2's join script starts after the timeout
  plan.media_duration = seconds(5);
  plan.join_timeout = seconds(25);
  plan.script = script;
  plan.on_all_joined = [&] { joined_fired = true; };
  plan.on_done = [&](const SessionOutcome& outcome) {
    done_fired = true;
    seen = outcome;
  };
  SessionOrchestrator orchestrator{std::move(plan)};
  orchestrator.start();
  bed.run_all();

  EXPECT_TRUE(done_fired);
  EXPECT_FALSE(joined_fired);
  EXPECT_FALSE(seen.ok);
  ASSERT_EQ(seen.missing_participants.size(), 1u);
  EXPECT_EQ(seen.missing_participants[0], 1u);  // p2 never made it
  EXPECT_TRUE(orchestrator.finished());
  EXPECT_TRUE(orchestrator.timed_out());
  EXPECT_FALSE(host.in_meeting());
  EXPECT_FALSE(p1.in_meeting());
  EXPECT_FALSE(p2.in_meeting());
  EXPECT_EQ(metrics.counter("session.join_timeouts").value(), 1);
  EXPECT_EQ(metrics.counter("session.completed").value(), 0);
}

TEST_F(OrchestratorFixture, JoinTimeoutDisabledKeepsLegacyBehaviour) {
  net::Host& host_vm = bed.create_vm(site_by_name("US-East"), 0);
  net::Host& p1_vm = bed.create_vm(site_by_name("US-West"), 0);
  client::VcaClient host{host_vm, *platform, cfg(true)};
  client::VcaClient p1{p1_vm, *platform, cfg(false)};

  SessionOrchestrator::Plan plan;
  plan.host = &host;
  plan.participants = {&p1};
  plan.media_duration = seconds(2);
  plan.join_timeout = SimDuration::zero();
  bool done = false;
  plan.on_done = [&](const SessionOutcome& outcome) { done = outcome.ok; };
  SessionOrchestrator orchestrator{std::move(plan)};
  orchestrator.start();
  bed.run_all();
  EXPECT_TRUE(done);
  EXPECT_FALSE(orchestrator.timed_out());
}

TEST_F(OrchestratorFixture, ControllerMetricsRecordJoins) {
  net::Host& host_vm = bed.create_vm(site_by_name("US-East"), 0);
  net::Host& p1_vm = bed.create_vm(site_by_name("US-West"), 0);
  client::VcaClient host{host_vm, *platform, cfg(true)};
  client::VcaClient p1{p1_vm, *platform, cfg(false)};

  SessionOrchestrator::Plan plan;
  plan.host = &host;
  plan.participants = {&p1};
  plan.media_duration = seconds(2);
  SessionOrchestrator orchestrator{std::move(plan)};
  orchestrator.start();
  bed.run_all();

  EXPECT_EQ(metrics.counter("client.meetings_created").value(), 1);
  EXPECT_EQ(metrics.counter("client.joins").value(), 1);
  EXPECT_EQ(metrics.counter("session.completed").value(), 1);
  const auto& lat = metrics.histogram("client.join_latency_ms").stats();
  ASSERT_EQ(lat.count(), 1u);
  // The scripted Webex join path is launch+login+join = 8.5 s.
  EXPECT_NEAR(lat.mean(), 8500.0, 1.0);
}

}  // namespace
}  // namespace vc::testbed
