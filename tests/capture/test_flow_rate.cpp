#include <gtest/gtest.h>

#include "capture/flow.h"
#include "capture/rate_analyzer.h"

namespace vc::capture {
namespace {

const net::Endpoint kLocal{net::IpAddr{0x0A000001}, 47000};
const net::Endpoint kRelay{net::IpAddr{0x0A000002}, 8801};
const net::Endpoint kOther{net::IpAddr{0x0A000003}, 9000};

CaptureRecord rec(SimTime t, net::Direction dir, net::Endpoint remote, std::int64_t l7) {
  CaptureRecord r;
  r.timestamp = t;
  r.dir = dir;
  if (dir == net::Direction::kIncoming) {
    r.src = remote;
    r.dst = kLocal;
  } else {
    r.src = kLocal;
    r.dst = remote;
  }
  r.l7_len = l7;
  r.wire_len = l7 + 28;
  return r;
}

TEST(FlowTable, GroupsByRemoteEndpoint) {
  Trace t;
  t.records.push_back(rec(SimTime{0}, net::Direction::kIncoming, kRelay, 100));
  t.records.push_back(rec(SimTime{1000}, net::Direction::kOutgoing, kRelay, 200));
  t.records.push_back(rec(SimTime{2000}, net::Direction::kIncoming, kOther, 50));
  const FlowTable table{t};
  ASSERT_EQ(table.flows().size(), 2u);
  const auto by_vol = table.by_volume();
  EXPECT_EQ(by_vol[0].first.remote, kRelay);
  EXPECT_EQ(by_vol[0].second.l7_bytes(), 300);
  EXPECT_EQ(by_vol[0].second.packets_in, 1);
  EXPECT_EQ(by_vol[0].second.packets_out, 1);
  EXPECT_EQ(by_vol[0].second.l7_bytes_in, 100);
  EXPECT_EQ(by_vol[0].second.l7_bytes_out, 200);
  EXPECT_EQ(by_vol[1].second.l7_bytes(), 50);
}

TEST(FlowTable, TracksTimeBounds) {
  Trace t;
  t.records.push_back(rec(SimTime{5000}, net::Direction::kIncoming, kRelay, 10));
  t.records.push_back(rec(SimTime{1000}, net::Direction::kIncoming, kRelay, 10));
  t.records.push_back(rec(SimTime{9000}, net::Direction::kIncoming, kRelay, 10));
  const FlowTable table{t};
  const auto& stats = table.flows().front().second;
  EXPECT_EQ(stats.first, SimTime{1000});
  EXPECT_EQ(stats.last, SimTime{9000});
  EXPECT_EQ(stats.duration(), micros(8000));
}

TEST(RecordRemoteLocal, OrientationHelpers) {
  const auto in = rec(SimTime{0}, net::Direction::kIncoming, kRelay, 1);
  EXPECT_EQ(in.remote(), kRelay);
  EXPECT_EQ(in.local(), kLocal);
  const auto out = rec(SimTime{0}, net::Direction::kOutgoing, kRelay, 1);
  EXPECT_EQ(out.remote(), kRelay);
  EXPECT_EQ(out.local(), kLocal);
}

TEST(RateAnalyzer, ComputesDirectionalL7Rates) {
  Trace t;
  // 1 second of traffic: 10 incoming x 1000 B, 5 outgoing x 500 B.
  for (int i = 0; i < 10; ++i) {
    t.records.push_back(rec(SimTime{i * 100'000}, net::Direction::kIncoming, kRelay, 1000));
  }
  for (int i = 0; i < 5; ++i) {
    t.records.push_back(rec(SimTime{i * 200'000 + 1'000'000}, net::Direction::kOutgoing, kRelay, 500));
  }
  const RateAnalyzer analyzer{t};
  const RateReport rep = analyzer.average();
  EXPECT_EQ(rep.l7_bytes_down, 10'000);
  EXPECT_EQ(rep.l7_bytes_up, 2'500);
  // Span = 1.8 s (first to last record).
  EXPECT_NEAR(rep.download.as_kbps(), 10'000 * 8 / 1.8 / 1000, 1.0);
}

TEST(RateAnalyzer, WindowFilter) {
  Trace t;
  for (int i = 0; i < 10; ++i) {
    t.records.push_back(rec(SimTime{i * 1'000'000}, net::Direction::kIncoming, kRelay, 1000));
  }
  const RateAnalyzer analyzer{t};
  const auto rep = analyzer.average(SimTime{5'000'000}, SimTime{8'000'000});
  EXPECT_EQ(rep.l7_bytes_down, 4000);  // records at 5,6,7,8 s
}

TEST(RateAnalyzer, RemoteFilter) {
  Trace t;
  t.records.push_back(rec(SimTime{0}, net::Direction::kIncoming, kRelay, 1000));
  t.records.push_back(rec(SimTime{1'000'000}, net::Direction::kIncoming, kOther, 9999));
  t.records.push_back(rec(SimTime{2'000'000}, net::Direction::kIncoming, kRelay, 1000));
  const RateAnalyzer analyzer{t};
  const auto rep = analyzer.average(std::nullopt, std::nullopt, kRelay);
  EXPECT_EQ(rep.l7_bytes_down, 2000);
}

TEST(RateAnalyzer, EmptyTraceYieldsZero) {
  Trace t;
  const RateAnalyzer analyzer{t};
  EXPECT_EQ(analyzer.average().download, DataRate::zero());
}

// Regression: a window matching nothing used to compute span from the
// untouched sentinels (hi=0 - lo=infinity), producing a nonsense negative
// span. Now it reports records == 0 with everything zeroed.
TEST(RateAnalyzer, NoMatchingRecordsReportsAllZero) {
  Trace t;
  t.records.push_back(rec(SimTime{1'000'000}, net::Direction::kIncoming, kRelay, 1000));
  const RateAnalyzer analyzer{t};
  const auto rep = analyzer.average(SimTime{5'000'000}, SimTime{9'000'000});
  EXPECT_EQ(rep.records, 0);
  EXPECT_EQ(rep.l7_bytes_down, 0);
  EXPECT_EQ(rep.l7_bytes_up, 0);
  EXPECT_EQ(rep.span, SimDuration::zero());
  EXPECT_EQ(rep.download, DataRate::zero());
  EXPECT_EQ(rep.upload, DataRate::zero());
}

// Regression: a single-record (or single-timestamp) window used to divide the
// byte count by a zero-second span. Without explicit bounds the rate now
// stays zero and the degenerate case is detectable.
TEST(RateAnalyzer, SingleRecordWithoutBoundsKeepsRateZero) {
  Trace t;
  t.records.push_back(rec(SimTime{3'000'000}, net::Direction::kIncoming, kRelay, 1234));
  const RateAnalyzer analyzer{t};
  const auto rep = analyzer.average();
  EXPECT_EQ(rep.records, 1);
  EXPECT_EQ(rep.l7_bytes_down, 1234);
  EXPECT_EQ(rep.span, SimDuration::zero());
  EXPECT_EQ(rep.download, DataRate::zero());
}

// With both bounds given, the queried interval is the honest denominator for
// a degenerate window.
TEST(RateAnalyzer, SingleRecordWithBoundsUsesQueriedInterval) {
  Trace t;
  t.records.push_back(rec(SimTime{3'000'000}, net::Direction::kIncoming, kRelay, 1000));
  const RateAnalyzer analyzer{t};
  const auto rep = analyzer.average(SimTime{2'000'000}, SimTime{4'000'000});
  EXPECT_EQ(rep.records, 1);
  EXPECT_EQ(rep.span, seconds(2));
  EXPECT_NEAR(rep.download.as_kbps(), 1000 * 8 / 2.0 / 1000.0, 0.01);
}

TEST(RateAnalyzer, ReportsMatchingRecordCount) {
  Trace t;
  for (int i = 0; i < 7; ++i) {
    t.records.push_back(rec(SimTime{i * 1'000'000}, net::Direction::kIncoming, kRelay, 100));
  }
  const RateAnalyzer analyzer{t};
  EXPECT_EQ(analyzer.average().records, 7);
  EXPECT_EQ(analyzer.average(SimTime{2'000'000}, SimTime{4'000'000}).records, 3);
}

}  // namespace
}  // namespace vc::capture
