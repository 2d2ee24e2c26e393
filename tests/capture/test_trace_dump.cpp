#include <gtest/gtest.h>

#include "capture/trace_dump.h"

namespace vc::capture {
namespace {

Trace sample() {
  Trace t;
  t.host_name = "US-West";
  for (int i = 0; i < 6; ++i) {
    CaptureRecord r;
    r.timestamp = SimTime{1'000'000 + i * 250'000};
    r.dir = i % 2 == 0 ? net::Direction::kIncoming : net::Direction::kOutgoing;
    r.src = {net::IpAddr{0x0A000004}, 8801};
    r.dst = {net::IpAddr{0x0A000002}, 47000};
    r.protocol = net::Protocol::kUdp;
    r.l7_len = 1000 + i;
    r.wire_len = r.l7_len + 28;
    t.records.push_back(r);
  }
  return t;
}

TEST(TraceDump, OneLinePerRecord) {
  const auto text = dump_trace_to_string(sample(), {});
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
  EXPECT_NE(text.find("10.0.0.4:8801 > 10.0.0.2:47000"), std::string::npos);
  EXPECT_NE(text.find("UDP wire=1028 l7=1000"), std::string::npos);
  EXPECT_NE(text.find("1.000000 IN"), std::string::npos);
}

TEST(TraceDump, MaxRecordsLimit) {
  DumpOptions opt;
  opt.max_records = 2;
  const auto text = dump_trace_to_string(sample(), opt);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(TraceDump, Summary) {
  const auto s = summarize_trace(sample());
  EXPECT_NE(s.find("US-West"), std::string::npos);
  EXPECT_NE(s.find("6 records"), std::string::npos);
  EXPECT_NE(s.find("KB in"), std::string::npos);
}

TEST(TraceDump, EmptyTrace) {
  Trace t;
  t.host_name = "empty";
  EXPECT_EQ(dump_trace_to_string(t, {}), "");
  EXPECT_NE(summarize_trace(t).find("0 records"), std::string::npos);
}

}  // namespace
}  // namespace vc::capture
