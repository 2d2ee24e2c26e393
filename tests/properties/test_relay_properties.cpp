// Property sweeps over relay fan-out conservation and audio codec behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/shard_pool.h"
#include "media/audio.h"
#include "media/audio_codec.h"
#include "media/feeds.h"
#include "platform/relay.h"

namespace vc {
namespace {

// ------------------------------------------------- relay conservation law

class RelayFanoutSweep : public ::testing::TestWithParam<int> {};

TEST_P(RelayFanoutSweep, ForwardsExactlyNMinusOneCopies) {
  const int n = GetParam();
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(2)), 1};
  platform::RelayServer relay{net, "relay", GeoPoint{38.9, -77.4}, 8801,
                              platform::RelayServer::ForwardingDelay{millis(1), 0.0}};
  std::vector<int> received(static_cast<std::size_t>(n), 0);
  std::vector<net::Host*> hosts;
  for (int i = 0; i < n; ++i) {
    net::Host& h = net.add_host("c" + std::to_string(i), GeoPoint{40, -75});
    auto& sock = h.udp_bind(100);
    int* counter = &received[static_cast<std::size_t>(i)];
    sock.on_receive([counter](const net::Packet&) { ++(*counter); });
    relay.add_participant(1, static_cast<platform::ParticipantId>(i + 1), {h.ip(), 100});
    hosts.push_back(&h);
  }
  // Every participant sends one video packet.
  for (int i = 0; i < n; ++i) {
    net::Packet p;
    p.dst = relay.endpoint();
    p.l7_len = 500;
    p.kind = net::StreamKind::kVideo;
    p.origin_id = static_cast<std::uint32_t>(i + 1);
    hosts[static_cast<std::size_t>(i)]->udp_socket(100)->send(std::move(p));
  }
  net.loop().run();
  // Conservation: each participant receives exactly one copy of every other
  // participant's packet and never its own.
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], n - 1) << "participant " << i;
  }
  EXPECT_EQ(relay.stats().media_in, n);
  EXPECT_EQ(relay.stats().media_forwarded, static_cast<std::int64_t>(n) * (n - 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RelayFanoutSweep, ::testing::Values(2, 3, 5, 8, 13));

// --------------------------------- sharded fan-out K-invariance properties
//
// Randomized sessions (member count, subscription sets, simulcast scales,
// packet sizes all drawn from the test seed) run at several shard counts.
// Everything the determinism contract covers must be invariant in K, and
// the conservation/clamp/FIFO laws must hold at every K.

struct ShardedOutcome {
  /// Per receiver, the exact (origin, seq, l7_len) delivery sequence.
  std::vector<std::vector<std::tuple<std::uint32_t, std::uint64_t, std::int64_t>>> rx;
  std::int64_t media_in = 0;
  std::int64_t media_forwarded = 0;
  std::int64_t peer_forwarded = 0;
  std::size_t fan_out_count = 0;
  double fan_out_sum = 0.0;
};

ShardedOutcome run_random_sharded_session(std::uint64_t seed, int shards, ShardPool* pool) {
  Rng gen{seed};  // session construction stream, identical at every K
  const int n = static_cast<int>(gen.uniform_int(2, 40));
  const double jitter_ms = gen.uniform(0.0, 4.0);

  MetricsRegistry metrics;
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(2)), seed, {&metrics}};
  platform::RelayServer relay{net, "relay", GeoPoint{38.9, -77.4}, 8801,
                              platform::RelayServer::ForwardingDelay{millis(1), jitter_ms}};
  relay.set_fan_out_sharding(pool, shards);

  ShardedOutcome out;
  out.rx.resize(static_cast<std::size_t>(n));
  std::vector<net::Host*> hosts;
  for (int i = 0; i < n; ++i) {
    net::Host& h = net.add_host("c" + std::to_string(i), GeoPoint{40, -75});
    auto& sock = h.udp_bind(100);
    auto* sink = &out.rx[static_cast<std::size_t>(i)];
    sock.on_receive([sink](const net::Packet& p) {
      sink->push_back({p.origin_id, p.seq, p.l7_len});
    });
    relay.add_participant(1, static_cast<platform::ParticipantId>(i + 1), {h.ip(), 100});
    hosts.push_back(&h);
  }

  // About half the receivers pin explicit subscriptions; scales include the
  // paper's thumbnail/simulcast ratios plus scale<=0 (unsubscribed).
  constexpr double kScales[] = {0.0, 0.05, 0.25, 1.0};
  for (int i = 0; i < n; ++i) {
    if (!gen.chance(0.5)) continue;
    std::vector<platform::StreamSubscription> subs;
    for (int o = 0; o < n; ++o) {
      if (o == i || !gen.chance(0.7)) continue;
      subs.push_back({static_cast<platform::ParticipantId>(o + 1), kScales[gen.index(4)]});
    }
    relay.set_subscriptions(1, static_cast<platform::ParticipantId>(i + 1), std::move(subs));
  }

  // Sends at strictly increasing times with per-sender monotonic seqs, so
  // per-(receiver, origin) delivery order must follow seq order. Sizes
  // include l7_len small enough that any thinned copy hits the 24-byte
  // clamp (25 * 0.05 ≈ 1 → 24).
  std::vector<std::uint64_t> next_seq(static_cast<std::size_t>(n), 0);
  std::int64_t t = 0;
  for (int s = 0; s < 120; ++s) {
    t += gen.uniform_int(1, 4'000);
    const int sender = static_cast<int>(gen.index(static_cast<std::size_t>(n)));
    const bool audio = gen.chance(0.2);
    const std::int64_t l7 = audio ? 120 : (gen.chance(0.25) ? 25 : gen.uniform_int(24, 1'400));
    const std::uint64_t seq = next_seq[static_cast<std::size_t>(sender)]++;
    net::Host* h = hosts[static_cast<std::size_t>(sender)];
    net.loop().schedule_at(SimTime{t}, [h, &relay, sender, audio, l7, seq] {
      net::Packet p;
      p.dst = relay.endpoint();
      p.l7_len = l7;
      p.kind = audio ? net::StreamKind::kAudio : net::StreamKind::kVideo;
      p.origin_id = static_cast<std::uint32_t>(sender + 1);
      p.seq = seq;
      h->udp_socket(100)->send(std::move(p));
    });
  }
  net.loop().run();

  out.media_in = relay.stats().media_in;
  out.media_forwarded = relay.stats().media_forwarded;
  out.peer_forwarded = relay.stats().peer_forwarded;
  const auto& fan_out = metrics.histograms().at("relay.fan_out").stats();
  out.fan_out_count = fan_out.count();
  out.fan_out_sum = fan_out.sum();
  return out;
}

class ShardedRelaySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedRelaySweep, InvariantsHoldAndAreIndependentOfK) {
  const std::uint64_t seed = GetParam();
  const ShardedOutcome serial = run_random_sharded_session(seed, 0, nullptr);

  // Conservation: with a lossless latency model, every forwarded copy is
  // delivered, so media_forwarded equals total deliveries; the fan-out
  // histogram observes each ingest once and sums to the copies made.
  std::int64_t delivered = 0;
  for (const auto& r : serial.rx) delivered += static_cast<std::int64_t>(r.size());
  EXPECT_EQ(delivered, serial.media_forwarded);
  EXPECT_EQ(serial.fan_out_count, static_cast<std::size_t>(serial.media_in));
  // sum() is mean()*count() — llround absorbs the streaming-mean rounding.
  EXPECT_EQ(std::llround(serial.fan_out_sum), serial.media_forwarded);
  EXPECT_EQ(serial.peer_forwarded, 0);  // no peer links in this topology

  // Thinning clamp: no delivered packet is ever smaller than the 24-byte
  // header floor, and per-(receiver, origin) sequence numbers stay in send
  // order (the departure pipeline is FIFO per destination).
  for (const auto& r : serial.rx) {
    std::map<std::uint32_t, std::uint64_t> last_seq;
    for (const auto& [origin, seq, l7] : r) {
      EXPECT_GE(l7, 24);
      const auto it = last_seq.find(origin);
      if (it != last_seq.end()) {
        EXPECT_GT(seq, it->second);
      }
      last_seq[origin] = seq;
    }
  }

  // K-invariance: staged-inline at several K, and one real multi-worker
  // pool, all reproduce the serial outcome exactly.
  ShardPool pool{2};
  for (int k : {2, 3, 8}) {
    const ShardedOutcome sharded = run_random_sharded_session(seed, k, nullptr);
    EXPECT_EQ(sharded.rx, serial.rx) << "inline K=" << k;
    EXPECT_EQ(sharded.media_forwarded, serial.media_forwarded) << "inline K=" << k;
    EXPECT_EQ(sharded.fan_out_count, serial.fan_out_count) << "inline K=" << k;
    EXPECT_EQ(sharded.fan_out_sum, serial.fan_out_sum) << "inline K=" << k;
  }
  const ShardedOutcome pooled = run_random_sharded_session(seed, 4, &pool);
  EXPECT_EQ(pooled.rx, serial.rx) << "pooled K=4";
  EXPECT_EQ(pooled.media_forwarded, serial.media_forwarded);
  EXPECT_EQ(pooled.fan_out_count, serial.fan_out_count);
  EXPECT_EQ(pooled.fan_out_sum, serial.fan_out_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedRelaySweep,
                         ::testing::Values(1u, 17u, 404u, 9001u, 77777u));

// ---------------------------------------------------- audio codec sweeps

class AudioCodecSweep : public ::testing::TestWithParam<double> {};

TEST_P(AudioCodecSweep, FrameBytesRespectBudget) {
  const double kbps = GetParam();
  media::AudioEncoder enc{{DataRate::kbps(kbps), 16'000, 20}};
  media::AudioDecoder dec{enc.frame_samples()};
  const auto voice = media::synthesize_voice(1.0, 17);
  const double budget_bytes = kbps * 1000.0 * 0.020 / 8.0;
  for (int f = 0; f < 40; ++f) {
    const std::span<const float> in{voice.samples.data() + f * enc.frame_samples(),
                                    static_cast<std::size_t>(enc.frame_samples())};
    const auto frame = enc.encode(in);
    EXPECT_LE(frame->bytes, static_cast<std::int64_t>(budget_bytes) + 8) << "frame " << f;
    // Decode must reproduce the sample count regardless of rate.
    EXPECT_EQ(dec.decode(*frame).size(), static_cast<std::size_t>(enc.frame_samples()));
  }
}

TEST_P(AudioCodecSweep, SilenceIsNearlyFree) {
  media::AudioEncoder enc{{DataRate::kbps(GetParam()), 16'000, 20}};
  std::vector<float> silence(static_cast<std::size_t>(enc.frame_samples()), 0.0F);
  const auto frame = enc.encode(silence);
  EXPECT_LE(frame->bytes, 8);  // header only: all coefficients quantize to 0
}

INSTANTIATE_TEST_SUITE_P(Rates, AudioCodecSweep, ::testing::Values(16.0, 40.0, 45.0, 90.0, 128.0));

// ------------------------------------------------ feed determinism sweep

class FeedDeterminismSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FeedDeterminismSweep, AllFeedsArePureFunctions) {
  const std::uint64_t seed = GetParam();
  const media::FeedParams params{64, 48, 10.0, seed};
  const media::TalkingHeadFeed head{params};
  const media::TourGuideFeed tour{params};
  const media::FlashFeed flash{params};
  for (std::int64_t i : {0, 7, 23, 100}) {
    EXPECT_EQ(head.frame_at(i), head.frame_at(i));
    EXPECT_EQ(tour.frame_at(i), tour.frame_at(i));
    EXPECT_EQ(flash.frame_at(i), flash.frame_at(i));
  }
  // Sensor noise differs frame to frame (it is noise)...
  EXPECT_NE(head.frame_at(1000), head.frame_at(1001));
  // ...but is itself deterministic: a second feed instance agrees.
  const media::TalkingHeadFeed head2{params};
  EXPECT_EQ(head.frame_at(1000), head2.frame_at(1000));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeedDeterminismSweep, ::testing::Values(1u, 99u, 4242u));

}  // namespace
}  // namespace vc
