// Determinism contract of the relay fan-out: the same seeded session must
// produce byte-identical results on every run. Verified at two levels:
//   * a canonical relay session serialized packet-by-packet (every
//     receiver's (origin, seq, l7_len, arrival_us) sequence plus Stats and
//     the standard metrics registry), run twice and pinned by a golden file;
//   * a full platform session driven through runner::ExperimentRunner,
//     comparing RunReport::aggregate_json() strings across thread counts.
// Regenerate the golden file with VC_UPDATE_GOLDEN=1 after an intentional
// semantic change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/mobile_benchmark.h"
#include "platform/relay.h"
#include "runner/experiment_runner.h"

namespace vc {
namespace {

struct ReceivedPacket {
  std::uint32_t origin = 0;
  std::uint64_t seq = 0;
  std::int64_t l7_len = 0;
  std::int64_t arrival_us = 0;
};

/// Runs the canonical relay session and serializes everything the
/// determinism contract covers. Only integer fields are emitted, so the
/// string doubles as a portable golden file when jitter_mean_ms == 0
/// (nonzero jitter goes through libm exp/log, whose last-ULP behavior is
/// platform-specific; same-machine comparisons may use it freely).
std::string run_canonical_session(double jitter_mean_ms) {
  constexpr int kParticipants = 23;
  constexpr int kFrames = 12;

  MetricsRegistry metrics;
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(3)), 1, {&metrics}};
  platform::RelayServer relay{net, "relay", GeoPoint{38.9, -77.4}, 8801,
                              platform::RelayServer::ForwardingDelay{millis(2), jitter_mean_ms}};
  platform::RelayServer peer{net, "peer", GeoPoint{50.0, 8.0}, 8801,
                             platform::RelayServer::ForwardingDelay{millis(2), jitter_mean_ms}};

  std::vector<std::vector<ReceivedPacket>> rx(kParticipants);
  std::vector<net::Host*> hosts;
  for (int i = 0; i < kParticipants; ++i) {
    net::Host& h = net.add_host("c" + std::to_string(i), GeoPoint{40.0 - i, -75.0});
    auto& sock = h.udp_bind(100);
    auto* sink = &rx[static_cast<std::size_t>(i)];
    sock.on_receive([sink, &net](const net::Packet& p) {
      sink->push_back({p.origin_id, p.seq, p.l7_len, net.now().micros()});
    });
    relay.add_participant(1, static_cast<platform::ParticipantId>(i + 1), {h.ip(), 100});
    hosts.push_back(&h);
  }

  // A Meet-style peer leg so peer_forwarded is exercised too.
  net::Host& remote = net.add_host("remote", GeoPoint{50.0, 8.0});
  auto& remote_sock = remote.udp_bind(100);
  std::vector<ReceivedPacket> remote_rx;
  remote_sock.on_receive([&remote_rx, &net](const net::Packet& p) {
    remote_rx.push_back({p.origin_id, p.seq, p.l7_len, net.now().micros()});
  });
  peer.add_participant(1, 99, {remote.ip(), 100});
  relay.link_peer(1, &peer);
  peer.link_peer(1, &relay);

  // Mixed subscription scales: receiver i subscribes to origin o at one of
  // {unset-record (drop), 0.0, 0.05, 0.25, 1.0}. Even receivers keep the
  // default forward-everything behavior (subscriptions never set).
  for (int i = 1; i < kParticipants; i += 2) {
    std::vector<platform::StreamSubscription> subs;
    for (int o = 0; o < kParticipants; ++o) {
      if (o == i) continue;
      switch ((i + o) % 5) {
        case 0: break;  // absent from the map: not subscribed
        case 1: subs.push_back({static_cast<platform::ParticipantId>(o + 1), 0.0}); break;
        case 2: subs.push_back({static_cast<platform::ParticipantId>(o + 1), 0.05}); break;
        case 3: subs.push_back({static_cast<platform::ParticipantId>(o + 1), 0.25}); break;
        default: subs.push_back({static_cast<platform::ParticipantId>(o + 1), 1.0}); break;
      }
    }
    relay.set_subscriptions(1, static_cast<platform::ParticipantId>(i + 1), std::move(subs));
  }

  // Staggered media: every sender emits one video packet per frame (sizes
  // include tiny ones whose thinned copies hit the 24-byte clamp) and every
  // third sender adds audio; one participant sends a control report.
  for (int f = 0; f < kFrames; ++f) {
    for (int i = 0; i < kParticipants; ++i) {
      const SimTime at{f * 33'000 + i * 777};
      net::Host* h = hosts[static_cast<std::size_t>(i)];
      const std::uint32_t origin = static_cast<std::uint32_t>(i + 1);
      const std::uint64_t seq = static_cast<std::uint64_t>(f);
      const std::int64_t l7 = (f + i) % 7 == 0 ? 30 : 200 + ((f * 31 + i * 17) % 1200);
      net.loop().schedule_at(at, [h, &relay, origin, seq, l7] {
        net::Packet p;
        p.dst = relay.endpoint();
        p.l7_len = l7;
        p.kind = net::StreamKind::kVideo;
        p.origin_id = origin;
        p.seq = seq;
        h->udp_socket(100)->send(std::move(p));
      });
      if (i % 3 == 0) {
        net.loop().schedule_at(SimTime{at.micros() + 11}, [h, &relay, origin, seq] {
          net::Packet p;
          p.dst = relay.endpoint();
          p.l7_len = 120;
          p.kind = net::StreamKind::kAudio;
          p.origin_id = origin;
          p.seq = 1'000 + seq;
          h->udp_socket(100)->send(std::move(p));
        });
      }
    }
  }
  net.loop().schedule_at(SimTime{5'000}, [&hosts, &relay] {
    net::Packet p;
    p.dst = relay.endpoint();
    p.l7_len = 48;
    p.kind = net::StreamKind::kControl;
    p.origin_id = 2;  // report concerning participant 2's stream
    hosts[4]->udp_socket(100)->send(std::move(p));
  });
  net.loop().run();

  std::ostringstream out;
  const auto& st = relay.stats();
  out << "stats media_in=" << st.media_in << " media_forwarded=" << st.media_forwarded
      << " peer_forwarded=" << st.peer_forwarded << " control_forwarded=" << st.control_forwarded
      << " probes_answered=" << st.probes_answered << "\n";
  for (int i = 0; i < kParticipants; ++i) {
    out << "rx" << i << ":";
    for (const auto& p : rx[static_cast<std::size_t>(i)]) {
      out << " (" << p.origin << "," << p.seq << "," << p.l7_len << "," << p.arrival_us << ")";
    }
    out << "\n";
  }
  out << "peer_rx:";
  for (const auto& p : remote_rx) {
    out << " (" << p.origin << "," << p.seq << "," << p.l7_len << "," << p.arrival_us << ")";
  }
  out << "\n";
  for (const auto& [name, c] : metrics.counters()) out << "counter " << name << "=" << c.value() << "\n";
  for (const auto& [name, h] : metrics.histograms()) {
    // Integer-valued fields only; sum() is mean()*count(), so llround
    // absorbs the streaming-mean rounding before it hits the transcript.
    out << "hist " << name << " count=" << h.stats().count()
        << " sum=" << std::llround(h.stats().sum())
        << " min=" << static_cast<std::int64_t>(h.stats().min())
        << " max=" << static_cast<std::int64_t>(h.stats().max()) << "\n";
  }
  return out.str();
}

TEST(RelayDeterminism, RepeatedRunsAreReproducible) {
  const std::string first = run_canonical_session(2.0);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(run_canonical_session(2.0), first);
}

// ------------------------------------------------------------- golden file

std::string golden_path() {
  return std::string{VC_DETERMINISM_GOLDEN_DIR} + "/canonical_session.txt";
}

TEST(RelayDeterminism, CanonicalSessionMatchesGoldenFile) {
  // Zero jitter keeps the transcript free of libm-derived values, so this
  // golden is portable across toolchains. Regenerate after an intentional
  // relay semantic change with:  VC_UPDATE_GOLDEN=1 ctest -R Golden
  const std::string serial = run_canonical_session(0.0);

  if (std::getenv("VC_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(runner::write_text_file(golden_path(), serial)) << "cannot write " << golden_path();
    GTEST_SKIP() << "golden file regenerated";
  }
  std::string golden;
  ASSERT_TRUE(runner::read_text_file(golden_path(), &golden))
      << "missing golden file " << golden_path();
  EXPECT_EQ(serial, golden)
      << "canonical session drifted from the golden transcript; if the change "
         "is intentional, regenerate with VC_UPDATE_GOLDEN=1";
}

// -------------------------------------------- full platform session via runner

TEST(RelayDeterminism, PlatformSessionReportIdenticalAcrossThreads) {
  // End-to-end: platform → RelayAllocator → relay, compared through the
  // runner's deterministic aggregate report.
  core::ScaleBenchmarkConfig cfg;
  cfg.platform = platform::PlatformId::kZoom;
  cfg.n_total = 6;
  cfg.duration = seconds(12);
  runner::ExperimentRunner::Config rc;
  rc.base_seed = 71;
  rc.label = "relay-determinism";
  const vcb::CheckedRun run = vcb::run_checked(rc, 2, [cfg](runner::SessionContext& ctx) {
    const core::ScaleSessionResult r = core::run_scale_session(cfg, ctx.seed);
    ctx.sample("s10_rate_mbps", r.s10_rate_mbps);
    ctx.sample("j3_rate_mbps", r.j3_rate_mbps);
    for (double c : r.s10_cpu) ctx.sample("s10_cpu", c);
  });
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run.serial.aggregate_json().empty());
}

}  // namespace
}  // namespace vc
