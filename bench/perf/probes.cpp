#include "bench/perf/probes.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "abr/abr.h"
#include "fleet/trunk.h"
#include "media/align.h"
#include "media/audio.h"
#include "media/audio_codec.h"
#include "media/feeds.h"
#include "media/qoe/video_metrics.h"
#include "media/video_codec.h"
#include "net/event_loop.h"
#include "net/latency.h"
#include "net/network.h"
#include "net/shaper.h"
#include "platform/rate_policy.h"
#include "platform/relay.h"
#include "testbed/locations.h"

namespace vcperf {
namespace {

using namespace vc;
using Clock = SpanLog::Clock;

/// Results flow here so the compiler cannot drop the probed calls.
volatile std::uint64_t g_sink = 0;

constexpr auto kRoundTime = std::chrono::milliseconds(100);
constexpr int kTimedRounds = 5;

/// One call batch: runs some calls into the layer and returns how many.
using Batch = std::function<std::int64_t()>;

/// One untimed warm-up round, then kTimedRounds rounds of at least
/// kRoundTime each; returns the best round's ns per call. Like a task, a
/// probe does fixed work that the host's contention can only slow down.
double time_rounds(const Batch& batch) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = -1; r < kTimedRounds; ++r) {
    const auto begin = Clock::now();
    auto end = begin;
    std::int64_t calls = 0;
    do {
      calls += batch();
      end = Clock::now();
    } while (end - begin < kRoundTime);
    if (r >= 0) {
      best = std::min(best, std::chrono::duration<double, std::nano>(end - begin).count() /
                                static_cast<double>(calls));
    }
  }
  return best;
}

std::shared_ptr<const media::VideoFeed> content_feed(const ProbeParams& p) {
  const media::FeedParams fp{p.feed_width, p.feed_height, 10.0, 7};
  switch (p.feed) {
    case ProbeParams::Feed::kFlash: return std::make_shared<media::FlashFeed>(fp);
    case ProbeParams::Feed::kLowMotion: return std::make_shared<media::TalkingHeadFeed>(fp);
    case ProbeParams::Feed::kHighMotion:
    case ProbeParams::Feed::kBothMotions: break;
  }
  return std::make_shared<media::TourGuideFeed>(fp);
}

/// The feed a sending client renders: the content plus its padding.
std::shared_ptr<const media::VideoFeed> sent_feed(const ProbeParams& p) {
  auto content = content_feed(p);
  if (p.padding == 0) return content;
  return std::make_shared<media::PaddedFeed>(content, p.padding);
}

media::VideoEncoder make_encoder(const ProbeParams& p, const media::VideoFeed& feed) {
  return media::VideoEncoder{
      feed.width(), feed.height(),
      {.target_bitrate = DataRate::kbps(p.encode_kbps), .fps = feed.fps()}};
}

/// Two seconds of sent frames: one flash period of the lag feed, a fifth of a
/// tour-guide scene.
std::vector<media::Frame> sent_frames(const ProbeParams& p) {
  const auto feed = sent_feed(p);
  std::vector<media::Frame> frames;
  for (std::int64_t k = 0; k < 20; ++k) frames.push_back(feed->frame_at(k));
  return frames;
}

Batch feeds_batch(const ProbeParams& p) {
  const std::int64_t frames = std::max(1, p.media_frames);
  return [feed = sent_feed(p), frames, next = std::int64_t{0}]() mutable {
    for (int k = 0; k < 8; ++k) g_sink = g_sink + feed->frame_at(next++ % frames).data()[0];
    return std::int64_t{8};
  };
}

Batch encode_batch(const ProbeParams& p) {
  const auto feed = sent_feed(p);
  auto enc = std::make_shared<media::VideoEncoder>(make_encoder(p, *feed));
  return [enc, frames = sent_frames(p), next = std::size_t{0}]() mutable {
    for (int k = 0; k < 4; ++k) {
      const auto& frame = frames[next++ % frames.size()];
      g_sink = g_sink + static_cast<std::uint64_t>(enc->encode(frame)->bytes);
    }
    return std::int64_t{4};
  };
}

Batch decode_batch(const ProbeParams& p) {
  const auto feed = sent_feed(p);
  media::VideoEncoder enc = make_encoder(p, *feed);
  std::vector<std::shared_ptr<media::EncodedFrame>> encoded;
  for (const media::Frame& f : sent_frames(p)) encoded.push_back(enc.encode(f));
  auto dec = std::make_shared<media::VideoDecoder>(feed->width(), feed->height());
  return [dec, encoded = std::move(encoded), next = std::size_t{0}]() mutable {
    for (int k = 0; k < 4; ++k) {
      g_sink = g_sink + dec->decode(*encoded[next++ % encoded.size()]).data()[0];
    }
    return std::int64_t{4};
  };
}

/// One call = one 20 ms frame encoded and decoded by every receiver.
Batch audio_batch(const ProbeParams& p) {
  auto enc = std::make_shared<media::AudioEncoder>(media::AudioEncoder::Config{});
  const media::AudioDecoder dec{enc->frame_samples()};
  return [enc, dec, receivers = std::max(1, p.receivers),
          voice = media::synthesize_voice(1.0, 7), next = std::size_t{0}]() mutable {
    const auto n = static_cast<std::size_t>(enc->frame_samples());
    const std::size_t frames = voice.samples.size() / n;
    for (int k = 0; k < 8; ++k) {
      const std::span<const float> pcm{voice.samples.data() + (next++ % frames) * n, n};
      const auto encoded = enc->encode(pcm);
      for (int r = 0; r < receivers; ++r) {
        g_sink = g_sink + static_cast<std::uint64_t>(dec.decode(*encoded).size());
      }
    }
    return std::int64_t{8};
  };
}

/// A receiver's recording: the encoder's reconstruction of every sent frame
/// (what a lossless receiver renders), plus the content it should match.
struct Recording {
  media::RecordedVideo video;
  std::vector<media::Frame> reference;
};

Recording make_recording(const ProbeParams& p) {
  const auto content = content_feed(p);
  const auto feed = sent_feed(p);
  media::VideoEncoder enc = make_encoder(p, *feed);
  Recording rec;
  rec.video.fps = feed->fps();
  for (std::int64_t k = 0; k < p.media_frames; ++k) {
    enc.encode(feed->frame_at(k));
    rec.video.frames.push_back(enc.last_reconstructed());
    rec.reference.push_back(content->frame_at(k));
  }
  return rec;
}

/// One call = one receiver's recording cropped, resized and SSIM-aligned.
Batch align_batch(const ProbeParams& p) {
  return [p, rec = make_recording(p)] {
    const media::RecordedVideo cropped =
        media::crop_and_resize(rec.video, p.padding, p.feed_width, p.feed_height);
    g_sink = g_sink + static_cast<std::uint64_t>(
                          media::best_temporal_shift(rec.reference, cropped.frames, 10));
    return std::int64_t{1};
  };
}

/// One call = PSNR + SSIM + VIFp of one aligned frame pair.
Batch qoe_batch(const ProbeParams& p) {
  const Recording rec = make_recording(p);
  const media::RecordedVideo cropped =
      media::crop_and_resize(rec.video, p.padding, p.feed_width, p.feed_height);
  return [reference = rec.reference, scored = cropped.frames, next = std::size_t{0}]() mutable {
    const std::size_t k = next++ % reference.size();
    g_sink = g_sink + static_cast<std::uint64_t>(
                          media::qoe::video_qoe(reference[k], scored[k]).psnr);
    return std::int64_t{1};
  };
}

/// One call = one event popped and rescheduled with `loop_depth` pending.
Batch loop_batch(const ProbeParams& p) {
  struct Tick {
    net::EventLoop* loop;
    SimDuration period;
    void operator()() const { loop->schedule_after(period, *this); }
  };
  auto loop = std::make_shared<net::EventLoop>();
  const int depth = std::max(1, p.loop_depth);
  const SimDuration period = millis(20);
  for (int i = 0; i < depth; ++i) {
    loop->schedule_at(SimTime{period.micros() * i / depth}, Tick{loop.get(), period});
  }
  return [loop, period] {
    const std::uint64_t before = loop->events_executed();
    loop->run_until(loop->now() + period);
    return static_cast<std::int64_t>(loop->events_executed() - before);
  };
}

/// A network on the geographic latency model with hosts at the US sites.
struct World {
  net::Network net{std::make_unique<net::GeoLatencyModel>(), 7};
  std::vector<net::Host*> hosts;
  std::int64_t received = 0;

  explicit World(int n_hosts) {
    const auto sites = testbed::us_sites();
    for (int i = 0; i < n_hosts; ++i) {
      const auto& site = sites[static_cast<std::size_t>(i) % sites.size()];
      net::Host& h = net.add_host(site.name + "-" + std::to_string(i), site.geo);
      h.udp_bind(100).on_receive([this](const net::Packet&) { ++received; });
      hosts.push_back(&h);
    }
  }
  void send_video(int from, net::Endpoint dst) {
    net::Packet pkt;
    pkt.dst = dst;
    pkt.l7_len = 1100;
    pkt.kind = net::StreamKind::kVideo;
    pkt.origin_id = static_cast<std::uint32_t>(from + 1);
    hosts[static_cast<std::size_t>(from)]->udp_socket(100)->send(std::move(pkt));
  }
};

/// One call = one packet sent and delivered across the US.
Batch link_batch() {
  auto world = std::make_shared<World>(9);
  return [world] {
    for (int k = 0; k < 64; ++k) {
      world->send_video(0, {world->hosts[static_cast<std::size_t>(1 + k % 8)]->ip(), 100});
    }
    world->net.loop().run();
    return std::int64_t{64};
  };
}

/// One call = one packet submitted to the congested workload's bottleneck
/// (2 Mbps, 200-packet queue) offered 1.5× its rate, so the queue stays full
/// and both the forward and the tail-drop path run.
Batch shaper_batch() {
  struct State {
    net::EventLoop loop;
    net::TokenBucketShaper shaper;
    std::int64_t delivered = 0;
    State(DataRate rate, std::size_t queue) : shaper(loop, rate, 24'000, queue) {}
  };
  const DataRate rate = DataRate::mbps(2.0);
  auto st = std::make_shared<State>(rate, 200);
  const SimDuration gap = micros(static_cast<std::int64_t>(1200 * 8 * 1e6 /
                                                          (1.5 * rate.bits_per_second())));
  return [st, gap] {
    for (int k = 0; k < 64; ++k) {
      st->loop.run_until(st->loop.now() + gap);
      net::Packet pkt;
      pkt.l7_len = 1200;
      st->shaper.submit(std::move(pkt), [st = st.get()](net::Packet) { ++st->delivered; });
    }
    return std::int64_t{64};
  };
}

/// A relay at US-East with a sender and `receivers` participants.
struct RelayRig {
  World world;
  platform::RelayServer relay;

  explicit RelayRig(int receivers)
      : world(receivers + 1),
        relay(world.net, "relay", testbed::site_by_name("US-East").geo, 8801) {
    for (int i = 0; i <= receivers; ++i) {
      relay.add_participant(1, static_cast<platform::ParticipantId>(i + 1),
                            {world.hosts[static_cast<std::size_t>(i)]->ip(), 100});
    }
  }
  /// Host 0 streams `packets` video packets into the relay; runs them out.
  void ingest(int packets) {
    for (int k = 0; k < packets; ++k) world.send_video(0, relay.endpoint());
    world.net.loop().run();
  }
};

/// One call = one participant copy (the ingest and the copy's delivery are
/// spread over the copies they serve).
Batch relay_batch(const ProbeParams& p) {
  const int copies = std::max(1, p.receivers);
  auto rig = std::make_shared<RelayRig>(copies);
  return [rig, copies] {
    rig->ingest(8);
    return std::int64_t{8} * copies;
  };
}

/// Two relays joined by a trunk: the origin relay's meeting has only the
/// sender, so every ingest leaves solely as one trunked peer copy.
struct TrunkRig {
  RelayRig origin{0};
  platform::RelayServer far{origin.world.net, "far", testbed::site_by_name("US-West").geo, 8801};
  fleet::Trunk trunk;

  TrunkRig()
      : trunk(origin.world.net, origin.relay, far,
              fleet::Trunk::Config{.propagation = origin.world.net.latency().expected_one_way(
                                       testbed::site_by_name("US-East").geo,
                                       testbed::site_by_name("US-West").geo)}) {
    origin.relay.link_peer(1, &far);
    far.link_peer(1, &origin.relay);  // creates the meeting on the far side
  }
};

/// One call = one packet ingested at the origin relay and forwarded over the
/// trunk into the far relay.
Batch trunk_batch() {
  auto rig = std::make_shared<TrunkRig>();
  return [rig] {
    rig->origin.ingest(32);
    return std::int64_t{32};
  };
}

/// One call = one select() on each of the fairness mix's adapters in turn,
/// over a throughput/queue-delay trace that keeps them switching tiers.
Batch abr_batch() {
  struct State {
    std::vector<std::unique_ptr<abr::AbrAlgo>> algos;
    std::int64_t round = 0;
  };
  auto st = std::make_shared<State>();
  const platform::PlatformId platforms[] = {platform::PlatformId::kZoom,
                                            platform::PlatformId::kWebex,
                                            platform::PlatformId::kMeet};
  const abr::AbrKind kinds[] = {abr::AbrKind::kThroughput, abr::AbrKind::kBuffer,
                                abr::AbrKind::kMpc};
  for (int i = 0; i < 3; ++i) {
    abr::AbrConfig cfg;
    cfg.kind = kinds[i];
    st->algos.push_back(abr::make_abr(cfg, platform::tier_ladder(platforms[i])));
  }
  return [st] {
    for (auto& algo : st->algos) {
      const std::int64_t r = st->round++;
      abr::AbrObservation obs;
      obs.now = SimTime{r * 500'000};
      obs.window_seconds = 0.5;
      obs.delivered_bytes = 20'000 + (r * 7919) % 60'000;
      obs.inter_ack_ms = 5.0 + static_cast<double>(r % 11);
      obs.loss_fraction = (r % 9 == 0) ? 0.1 : 0.0;
      obs.queue_delay_ms = static_cast<double>((r * 37) % 260);
      obs.platform_target = DataRate::kbps(800);
      obs.current_target = DataRate::kbps(600);
      g_sink = g_sink + static_cast<std::uint64_t>(algo->select(obs).tier);
    }
    return static_cast<std::int64_t>(st->algos.size());
  };
}

Batch layer_batch(Layer layer, const ProbeParams& p) {
  if (p.feed == ProbeParams::Feed::kBothMotions) {
    ProbeParams low = p;
    ProbeParams high = p;
    low.feed = ProbeParams::Feed::kLowMotion;
    high.feed = ProbeParams::Feed::kHighMotion;
    return [a = layer_batch(layer, low), b = layer_batch(layer, high), turn = false]() mutable {
      turn = !turn;
      return turn ? a() : b();
    };
  }
  switch (layer) {
    case kFeeds: return feeds_batch(p);
    case kEncode: return encode_batch(p);
    case kDecode: return decode_batch(p);
    case kAudio: return audio_batch(p);
    case kAlign: return align_batch(p);
    case kQoe: return qoe_batch(p);
    case kLoop: return loop_batch(p);
    case kLink: return link_batch();
    case kShaper: return shaper_batch();
    case kRelay: return relay_batch(p);
    case kTrunk: return trunk_batch();
    case kAbr: return abr_batch();
    case kLayerCount: break;
  }
  throw std::invalid_argument{"no such layer"};
}

}  // namespace

void SpanLog::add(std::string name, Clock::time_point begin, Clock::time_point end) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  spans_.push_back(Span{std::move(name), us(begin), us(end) - us(begin)});
}

std::string SpanLog::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "%s{\"name\":\"", i == 0 ? "" : ",\n");
    out += buf;
    out += s.name;
    std::snprintf(buf, sizeof(buf), "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}",
                  s.ts_us, s.dur_us);
    out += buf;
  }
  out += "]}\n";
  return out;
}

double probe_layer(Layer layer, const ProbeParams& p, double calls_per_task, SpanLog& log) {
  const Batch batch = layer_batch(layer, p);
  const double ns = time_rounds(batch);
  if (calls_per_task >= 1.0) {
    const auto begin = Clock::now();
    for (std::int64_t calls = 0; static_cast<double>(calls) < calls_per_task;) calls += batch();
    log.add(kLayerNames[layer], begin, Clock::now());
  }
  return ns;
}

}  // namespace vcperf
