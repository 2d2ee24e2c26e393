// Integration: the Section 4.2 lag benchmark on miniature configs.
// These runs are small (few sessions, short durations) but exercise the full
// pipeline: orchestration, flash feed, codec, relays, captures, detectors.
#include <gtest/gtest.h>

#include "capture/lag_detector.h"
#include "capture/timeline.h"
#include "common/stats.h"
#include "core/lag_benchmark.h"

namespace vc::core {
namespace {

LagBenchmarkConfig tiny(platform::PlatformId id, const std::string& host = "US-East") {
  LagBenchmarkConfig cfg;
  cfg.platform = id;
  cfg.host_site = host;
  cfg.participant_sites = us_participant_sites(host);
  cfg.sessions = 2;
  cfg.session_duration = seconds(30);
  cfg.seed = 17;
  return cfg;
}

double site_median(const LagBenchmarkResult& r, const std::string& label) {
  for (const auto& p : r.participants) {
    if (p.label == label && !p.lags_ms.empty()) return median(std::vector<double>(p.lags_ms));
  }
  ADD_FAILURE() << "no lag samples for " << label;
  return 0.0;
}

TEST(LagBenchmark, SiteHelpers) {
  EXPECT_EQ(us_participant_sites("US-East").size(), 6u);
  EXPECT_EQ(us_participant_sites("US-West").size(), 6u);
  EXPECT_EQ(europe_participant_sites("CH"),
            (std::vector<std::string>{"DE", "IE", "NL", "FR", "UK-South", "UK-West"}));
  EXPECT_EQ(europe_participant_sites("UK-West"),
            (std::vector<std::string>{"CH", "DE", "IE", "NL", "FR", "UK-South"}));
  EXPECT_THROW(europe_participant_sites("US-East"), std::invalid_argument);
}

TEST(LagBenchmark, ParticipantLabelsMatchTheRunsLabels) {
  // A US-West host puts two participants in US-East: the repeat is "-2".
  auto cfg = tiny(platform::PlatformId::kZoom, "US-West");
  cfg.sessions = 1;
  cfg.session_duration = seconds(5);
  const auto result = run_lag_benchmark(cfg);
  const auto labels = participant_labels(cfg.participant_sites);
  ASSERT_EQ(labels.size(), result.participants.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], result.participants[i].label) << i;
  }
  EXPECT_EQ(labels[4], "US-East-2");
}

TEST(LagBenchmark, ZoomEastHostGeographicOrdering) {
  const auto result = run_lag_benchmark(tiny(platform::PlatformId::kZoom));
  // Finding 1: lag grows with distance from the relay near the host.
  const double east = site_median(result, "US-East");
  const double central = site_median(result, "US-Central");
  const double west = site_median(result, "US-West");
  EXPECT_LT(east, central);
  EXPECT_LT(central, west);
  // US-west clients sit ~30 ms above the US-east client.
  EXPECT_NEAR(west - east, 32.0, 12.0);
  EXPECT_EQ(result.dominant_media_port, 8801);
}

TEST(LagBenchmark, ZoomFreshEndpointEverySession) {
  const auto result = run_lag_benchmark(tiny(platform::PlatformId::kZoom));
  // 2 sessions → 2 distinct endpoints per client.
  EXPECT_NEAR(result.mean_distinct_endpoints, 2.0, 0.01);
}

TEST(LagBenchmark, MeetStickyEndpoints) {
  const auto result = run_lag_benchmark(tiny(platform::PlatformId::kMeet));
  EXPECT_LT(result.mean_distinct_endpoints, 1.7);
  EXPECT_EQ(result.dominant_media_port, 19305);
}

TEST(LagBenchmark, WebexWestSessionsDetourViaEast) {
  // Finding 1's Webex quirk: with a US-west host, the *west* participants
  // still suffer because everything relays via US-east (Fig 5b/9b).
  const auto result = run_lag_benchmark(tiny(platform::PlatformId::kWebex, "US-West"));
  const double east = site_median(result, "US-East");
  const double west = site_median(result, "US-West");
  EXPECT_GT(west, east);  // east clients are near the relay, west are not
  EXPECT_EQ(result.dominant_media_port, 9000);
}

TEST(LagBenchmark, ZoomWestHostServedLocally) {
  // Zoom provisions the relay in the host's region: west clients win.
  const auto result = run_lag_benchmark(tiny(platform::PlatformId::kZoom, "US-West"));
  const double east = site_median(result, "US-East");
  const double west = site_median(result, "US-West");
  EXPECT_LT(west, east);
}

TEST(LagBenchmark, RttSamplesCollected) {
  const auto result = run_lag_benchmark(tiny(platform::PlatformId::kWebex));
  for (const auto& p : result.participants) {
    EXPECT_FALSE(p.session_rtt_ms.empty()) << p.label;
  }
  // Webex east relay: east clients see single-digit RTTs, west ~60-80 ms.
  const auto& parts = result.participants;
  double east_rtt = 0;
  double west_rtt = 0;
  for (const auto& p : parts) {
    if (p.label == "US-East") east_rtt = median(std::vector<double>(p.session_rtt_ms));
    if (p.label == "US-West") west_rtt = median(std::vector<double>(p.session_rtt_ms));
  }
  EXPECT_LT(east_rtt, 15.0);
  EXPECT_GT(west_rtt, 40.0);
}

TEST(LagBenchmark, SampleTracesShowFlashPattern) {
  // Fig 2: the sample sender trace must contain periodic flash events.
  const auto result = run_lag_benchmark(tiny(platform::PlatformId::kZoom));
  const auto tx_events =
      capture::detect_flash_events(result.sample_sender_trace, net::Direction::kOutgoing);
  const auto rx_events =
      capture::detect_flash_events(result.sample_receiver_trace, net::Direction::kIncoming);
  EXPECT_GE(tx_events.size(), 10u);
  EXPECT_GE(rx_events.size(), 10u);
  // Event spacing ≈ the 2 s flash period.
  for (std::size_t i = 1; i < tx_events.size(); ++i) {
    EXPECT_NEAR((tx_events[i].at - tx_events[i - 1].at).seconds(), 2.0, 0.3);
  }
}

TEST(LagBenchmark, EuropeZoomWorseThanMeet) {
  // Finding 2: EU sessions suffer on US-centric Zoom, not on Meet.
  LagBenchmarkConfig zoom_cfg = tiny(platform::PlatformId::kZoom, "CH");
  zoom_cfg.participant_sites = europe_participant_sites("CH");
  LagBenchmarkConfig meet_cfg = tiny(platform::PlatformId::kMeet, "CH");
  meet_cfg.participant_sites = europe_participant_sites("CH");
  const auto zoom = run_lag_benchmark(zoom_cfg);
  const auto meet = run_lag_benchmark(meet_cfg);
  std::vector<double> zoom_all;
  std::vector<double> meet_all;
  for (const auto& p : zoom.participants) {
    zoom_all.insert(zoom_all.end(), p.lags_ms.begin(), p.lags_ms.end());
  }
  for (const auto& p : meet.participants) {
    meet_all.insert(meet_all.end(), p.lags_ms.begin(), p.lags_ms.end());
  }
  ASSERT_FALSE(zoom_all.empty());
  ASSERT_FALSE(meet_all.empty());
  EXPECT_GT(median(zoom_all), 80.0);   // paper: 90–150 ms
  EXPECT_LT(median(meet_all), 70.0);   // paper: 30–40 ms
}

TEST(LagBenchmark, RejectsEmptyParticipants) {
  LagBenchmarkConfig cfg;
  cfg.participant_sites.clear();
  EXPECT_THROW(run_lag_benchmark(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace vc::core
