// Long-run soak benchmark: the always-on perf trajectory (PR 7).
//
// Replays a mixed workload in timed epochs — video encode+decode, serial
// relay fan-out, a competing-flow fairness session, audio encode+decode,
// and a metrics-timeline sampling session (PR 9) — and emits the whole
// time-series as one JSON report. Where the other
// bench gates are point-in-time A/B comparisons, this one watches for
// *drift within a single long run*: allocator fragmentation, cache
// pollution, accidental state accumulation (growing maps, unbounded pools)
// all show up as the later epochs running slower than the earlier ones.
//
// Checks, in order of exit code:
//   1 — any leg's output digest changes between epochs: the workload is
//       seeded and repeated verbatim, so a digest that moves means hidden
//       mutable state leaked across epochs (a determinism regression);
//   2 — `--gate <ratio>`: for each leg, drift = best epoch time of the
//       first half / best of the second half, on calibration-normalized
//       times; fails when any leg's drift falls below the ratio *relative
//       to the median drift across legs* (CI runs --gate 0.80). Best-of-half
//       rather than medians for the same reason vcb::invisibility_gate
//       uses best-of-rounds: scheduler noise only ever adds time, so
//       min/min isolates intrinsic drift — a real leak slows even the best
//       epoch. Relative rather than absolute because sustained co-tenant
//       load can slow a whole half of the run on a shared machine; that
//       moves every leg together and cancels out of the ratio, while a
//       genuine leak slows its own leg relative to the rest;
//   4 — `--baseline <file>`: the per-leg digests and work counts must match
//       the checked-in baseline exactly — the cross-run determinism anchor
//       (timings in the baseline are informational; machines differ).
//
// The report (default BENCH_SOAK.json, `--out` to move) is shaped like an
// ExperimentRunner run report, so `vcbench_cli report BENCH_SOAK.json`
// renders the per-leg epoch-time and throughput distributions; the raw
// "epochs" array holds the full time-series for plotting.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/metrics_timeline.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/fairness_benchmark.h"
#include "fleet/relay_fleet.h"
#include "health/health_monitor.h"
#include "net/event_loop.h"
#include "media/audio_codec.h"
#include "media/dct8.h"
#include "media/feeds.h"
#include "media/video_codec.h"
#include "platform/base_platform.h"
#include "platform/relay.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;
using namespace vc::media;
using vcb::fnv_mix;
using vcb::kFnvBasis;

struct LegResult {
  double seconds = 0.0;
  std::uint64_t digest = kFnvBasis;
  std::int64_t items = 0;
};

// --- codec leg: video encode + decode, digesting the full output ----------

struct CodecLeg {
  std::vector<Frame> frames;
  int frames_per_epoch;
  CodecLeg(int w, int h, int n) : frames_per_epoch(n) {
    TourGuideFeed feed{{w, h, 15.0, 3}};
    for (int i = 0; i < 10; ++i) frames.push_back(feed.frame_at(i));
  }
  LegResult run() const {
    const int w = frames[0].width();
    const int h = frames[0].height();
    VideoEncoder::Config cfg;
    cfg.target_bitrate = DataRate::kbps(800);
    cfg.fps = 15.0;
    VideoEncoder enc{w, h, cfg};
    VideoDecoder dec{w, h};
    LegResult out{};
    out.items = frames_per_epoch;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < frames_per_epoch; ++i) {
      const auto f = enc.encode(frames[static_cast<std::size_t>(i) % frames.size()]);
      fnv_mix(out.digest, static_cast<std::uint64_t>(f->bytes));
      for (const std::int16_t c : f->coeffs) {
        fnv_mix(out.digest, static_cast<std::uint64_t>(static_cast<std::uint16_t>(c)));
      }
      dec.decode(*f);
    }
    const auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    const Frame& last = dec.current();
    for (std::size_t i = 0; i < last.size(); ++i) fnv_mix(out.digest, last.data()[i]);
    return out;
  }
};

// --- relay leg: one serial fan-out meeting, digesting every delivery ------

LegResult run_relay_leg(int n, int frames) {
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(3)), 99};
  platform::RelayServer relay{net, "relay", GeoPoint{38.9, -77.4}, 8801,
                              platform::RelayServer::ForwardingDelay{millis(2), 2.0}};
  LegResult out{};
  out.items = static_cast<std::int64_t>(n) * frames;
  auto* digest = &out.digest;
  std::vector<net::Host*> hosts;
  for (int i = 0; i < n; ++i) {
    net::Host& h = net.add_host("c" + std::to_string(i), GeoPoint{40.0, -75.0});
    auto& sock = h.udp_bind(100);
    const std::uint64_t rx_tag = static_cast<std::uint64_t>(i) << 48;
    sock.on_receive([digest, rx_tag, &net](const net::Packet& p) {
      fnv_mix(*digest, rx_tag | p.origin_id);
      fnv_mix(*digest, p.seq);
      fnv_mix(*digest, static_cast<std::uint64_t>(net.now().micros()));
    });
    relay.add_participant(1, static_cast<platform::ParticipantId>(i + 1), {h.ip(), 100});
    hosts.push_back(&h);
  }
  for (int f = 0; f < frames; ++f) {
    for (int i = 0; i < n; ++i) {
      net::Host* h = hosts[static_cast<std::size_t>(i)];
      const std::uint32_t origin = static_cast<std::uint32_t>(i + 1);
      const std::uint64_t seq = static_cast<std::uint64_t>(f);
      const std::int64_t l7 = 700 + 53 * ((f + i) % 13);
      net.loop().schedule_at(SimTime{f * 33'000 + i * 211}, [h, &relay, origin, seq, l7] {
        net::Packet p;
        p.dst = relay.endpoint();
        p.l7_len = l7;
        p.kind = net::StreamKind::kVideo;
        p.origin_id = origin;
        p.seq = seq;
        h->udp_socket(100)->send(std::move(p));
      });
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  net.loop().run();
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

// --- fairness leg: a short competing-flow session -------------------------

LegResult run_fairness_leg() {
  core::FairnessBenchmarkConfig cfg;
  cfg.flows = core::default_fairness_flows(3);
  cfg.media_duration = seconds(6);
  LegResult out{};
  const auto t0 = std::chrono::steady_clock::now();
  const core::FairnessBenchmarkResult r = core::run_fairness_session(cfg, 424247);
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.items = static_cast<std::int64_t>(r.flows.size());
  auto mix_d = [&out](double v) { fnv_mix(out.digest, std::bit_cast<std::uint64_t>(v)); };
  mix_d(r.jain_index);
  mix_d(r.utilization);
  mix_d(r.drop_fraction);
  mix_d(r.queue_delay_mean_ms);
  for (const auto& f : r.flows) {
    mix_d(f.achieved_kbps);
    mix_d(f.share);
    mix_d(f.convergence_seconds);
    mix_d(f.final_target_kbps);
    fnv_mix(out.digest, static_cast<std::uint64_t>(f.abr_decisions));
  }
  return out;
}

// --- timeline leg: sampler + SLO monitor under metric churn ---------------
//
// A synthetic event-loop workload mutates a registry once per simulated
// millisecond while a MetricsTimeline samples it every 10 ms into a
// 64-slot ring (the 4 s run wraps it several times, so base folding is on the
// digested path) and a HealthMonitor with rules that genuinely fire — and one
// that stays open until finalize() — watches every snapshot. The digest
// covers the exported timeline + health JSON byte-for-byte, so any drift in
// sampling cadence, delta encoding, ring eviction, or breach edge-triggering
// across epochs (or across code changes, via the baseline) trips the
// determinism checks.
LegResult run_timeline_leg() {
  net::EventLoop loop;
  MetricsRegistry reg;
  auto* work = &reg.counter("soak.work");
  auto* burst = &reg.counter("soak.burst");
  auto* depth = &reg.gauge("soak.depth");
  auto* latency = &reg.histogram("soak.latency_ms");

  MetricsTimeline::Config tcfg;
  tcfg.interval = millis(10);
  tcfg.capacity = 64;
  MetricsTimeline timeline{tcfg};

  health::HealthMonitor monitor;
  // Triangle-wave gauge crosses 40 every period: repeated begin/end edges,
  // with a min_duration long enough to need several consecutive bad samples.
  monitor.add_rule({.rule = "depth-bounded",
                    .metric = "soak.depth",
                    .field = health::SloRule::Field::kValue,
                    .op = health::SloRule::Op::kLe,
                    .threshold = 40.0,
                    .severity = health::Severity::kWarning,
                    .min_duration = millis(30)});
  // Bursts happen only in odd 250 ms windows: delta-field edges every window.
  monitor.add_rule({.rule = "burst-quiet",
                    .metric = "soak.burst",
                    .field = health::SloRule::Field::kDelta,
                    .op = health::SloRule::Op::kEq,
                    .threshold = 0.0,
                    .severity = health::Severity::kInfo});
  // The running max only climbs, so once this breaches it never recovers —
  // finalize() has to close it (the close lands in the digested event list).
  monitor.add_rule({.rule = "latency-sane",
                    .metric = "soak.latency_ms",
                    .field = health::SloRule::Field::kMax,
                    .op = health::SloRule::Op::kLt,
                    .threshold = 9.5,
                    .severity = health::Severity::kCritical});
  monitor.bind(&reg, nullptr);
  timeline.set_observer(&monitor);

  const SimDuration span = seconds(4);
  timeline.arm(loop, reg, SimTime::zero(), SimTime::zero() + span);
  auto rng = std::make_shared<Rng>(20260808);
  // One workload event per 50 us of sim time — enough real work per epoch
  // (several ms) that the drift gate measures the leg, not scheduler noise.
  for (int k = 0; k < 80'000; ++k) {
    loop.schedule_at(SimTime{k * 50}, [work, burst, depth, latency, rng, k] {
      const int ms = k / 20;
      work->inc();
      if ((ms / 250) % 2 == 1) burst->inc();
      const int phase = ms % 500;  // triangle wave, period 500 ms, peak 62
      depth->set(static_cast<double>(phase < 250 ? phase : 500 - phase) / 4.0);
      latency->observe(rng->uniform(0.0, 10.0));
    });
  }

  LegResult out{};
  const auto t0 = std::chrono::steady_clock::now();
  loop.run();
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  timeline.finalize();
  out.items = static_cast<std::int64_t>(timeline.total_samples());
  const std::string tl_json = timeline.to_json();
  const std::string health_json = monitor.to_json();
  for (const char c : tl_json) fnv_mix(out.digest, static_cast<unsigned char>(c));
  for (const char c : health_json) fnv_mix(out.digest, static_cast<unsigned char>(c));
  return out;
}

// --- audio leg: encode + decode deterministic PCM -------------------------

struct AudioLeg {
  std::vector<float> pcm;  // frames_per_epoch contiguous frames
  int frames_per_epoch;
  int frame_samples;
  explicit AudioLeg(int n) : frames_per_epoch(n) {
    AudioEncoder probe{{}};
    frame_samples = probe.frame_samples();
    Rng rng{777};
    pcm.resize(static_cast<std::size_t>(n) * frame_samples);
    for (std::size_t i = 0; i < pcm.size(); ++i) {
      const double t = static_cast<double>(i) / 16'000.0;
      pcm[i] = static_cast<float>(0.5 * std::sin(2.0 * 3.141592653589793 * 440.0 * t) +
                                  0.1 * rng.uniform(-1.0, 1.0));
    }
  }
  LegResult run() const {
    AudioEncoder enc{{}};
    AudioDecoder dec{frame_samples};
    LegResult out{};
    out.items = frames_per_epoch;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < frames_per_epoch; ++i) {
      const auto f = enc.encode(std::span<const float>{
          pcm.data() + static_cast<std::size_t>(i) * frame_samples,
          static_cast<std::size_t>(frame_samples)});
      for (std::size_t k = 0; k < f->indices.size(); ++k) {
        fnv_mix(out.digest, (static_cast<std::uint64_t>(f->indices[k]) << 16) |
                                static_cast<std::uint16_t>(f->values[k]));
      }
      const auto decoded = dec.decode(*f);
      fnv_mix(out.digest, std::bit_cast<std::uint32_t>(decoded[0]));
      fnv_mix(out.digest, std::bit_cast<std::uint32_t>(decoded[decoded.size() / 2]));
    }
    const auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    return out;
  }
};

// --- fleet leg: trunked two-slot federation under membership churn --------
//
// A RelayFleet of 2 driven through its MeetingPlacer interface: one meeting
// overflow-split across both slots (trunked both ways), steady media from
// every member, and scripted churn — a leave plus replacement join, a relay
// crash whose members fail over to the trunked survivor mid-stream, and a
// post-restart expansion shard. The digest covers every delivery (receiver,
// origin, seq, arrival tick) plus the final trunk/slot accounting, so drift
// in balancer decisions, trunk pacing, or failover order trips the epoch
// and baseline checks.
LegResult run_fleet_leg(int frames) {
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(3)), 77};
  auto plat = platform::make_platform(platform::PlatformId::kZoom, net, 13);
  fleet::RelayFleet::Config fc;
  fc.size = 2;
  fc.policy = fleet::PlacementPolicy::kLeastLoaded;
  fc.overflow_shard_size = 4;  // members 1-8 split 4/4 across the slots
  fleet::RelayFleet fl{net, *plat, fc};

  LegResult out{};
  auto* digest = &out.digest;
  auto* items = &out.items;
  constexpr platform::MeetingId kMeeting = 1;
  const GeoPoint loc = platform::platform_sites(platform::PlatformId::kZoom)[0].location;

  struct Member {
    net::Host* host = nullptr;
    platform::RelayServer* home = nullptr;
    bool active = false;
  };
  std::vector<Member> members(11);  // ids 1..10
  auto join = [&](int id) {
    Member& m = members[static_cast<std::size_t>(id)];
    if (m.host == nullptr) {
      m.host = &net.add_host("fm" + std::to_string(id), GeoPoint{40.0, -75.0});
      auto& sock = m.host->udp_bind(100);
      const std::uint64_t rx_tag = static_cast<std::uint64_t>(id) << 48;
      sock.on_receive([digest, items, rx_tag, &net](const net::Packet& p) {
        fnv_mix(*digest, rx_tag | p.origin_id);
        fnv_mix(*digest, p.seq);
        fnv_mix(*digest, static_cast<std::uint64_t>(net.now().micros()));
        ++*items;
      });
    }
    platform::RelayServer* relay =
        fl.home_for(kMeeting, static_cast<platform::ParticipantId>(id), loc);
    if (relay == nullptr) return;
    relay->add_participant(kMeeting, static_cast<platform::ParticipantId>(id),
                           {m.host->ip(), 100});
    m.home = relay;
    m.active = true;
  };
  for (int id = 1; id <= 8; ++id) join(id);

  // Steady media: every active member streams at ~30 fps toward its current
  // home relay (updated in place on failover).
  for (int f = 0; f < frames; ++f) {
    for (int id = 1; id <= 10; ++id) {
      Member* m = &members[static_cast<std::size_t>(id)];
      const std::uint32_t origin = static_cast<std::uint32_t>(id);
      const std::uint64_t seq = static_cast<std::uint64_t>(f);
      const std::int64_t l7 = 600 + 41 * ((f + id) % 11);
      net.loop().schedule_at(SimTime{f * 33'000 + id * 307}, [m, origin, seq, l7] {
        if (!m->active || m->home == nullptr) return;
        net::Packet p;
        p.dst = m->home->endpoint();
        p.l7_len = l7;
        p.kind = net::StreamKind::kVideo;
        p.origin_id = origin;
        p.seq = seq;
        m->host->udp_socket(100)->send(std::move(p));
      });
    }
  }

  // Scripted churn, all at fixed sim times.
  net.loop().schedule_at(SimTime{2'000'000}, [&] {
    members[3].active = false;
    members[3].home->remove_participant(kMeeting, 3);
    fl.on_member_left(kMeeting, 3);
  });
  net.loop().schedule_at(SimTime{2'500'000}, [&] { join(9); });
  net.loop().schedule_at(SimTime{4'000'000}, [&] {
    platform::RelayServer* dead = fl.relay_of_slot(1);
    dead->crash();
    fl.on_relay_crashed(dead);
    for (int id = 1; id <= 10; ++id) {
      Member& m = members[static_cast<std::size_t>(id)];
      if (!m.active) continue;
      platform::RelayServer* target =
          fl.rehome(kMeeting, static_cast<platform::ParticipantId>(id));
      if (target == nullptr || target == m.home) continue;
      target->add_participant(kMeeting, static_cast<platform::ParticipantId>(id),
                              {m.host->ip(), 100});
      m.home = target;
      fnv_mix(*digest, 0xFA11'0000ULL | static_cast<std::uint64_t>(id));
    }
  });
  net.loop().schedule_at(SimTime{5'000'000}, [&] { fl.relay_of_slot(1)->restart(); });
  net.loop().schedule_at(SimTime{5'500'000}, [&] { join(10); });

  const auto t0 = std::chrono::steady_clock::now();
  net.loop().run();
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();

  // Final accounting: trunk forward/drop/delivery totals and slot load are
  // part of the digested contract, like relay metrics elsewhere.
  for (int i = 0; i < fl.size(); ++i) {
    for (int j = 0; j < fl.size(); ++j) {
      const fleet::Trunk* t = fl.trunk(i, j);
      if (t == nullptr) continue;
      fnv_mix(*digest, static_cast<std::uint64_t>(t->stats().delivered_packets));
      fnv_mix(*digest, static_cast<std::uint64_t>(t->stats().delivered_bytes));
      fnv_mix(*digest, static_cast<std::uint64_t>(t->shaper_stats().forwarded_packets));
      fnv_mix(*digest, static_cast<std::uint64_t>(t->shaper_stats().dropped_packets));
    }
    fnv_mix(*digest, static_cast<std::uint64_t>(fl.slot_participants(i)));
    fnv_mix(*digest, static_cast<std::uint64_t>(fl.slot_meetings(i)));
    const platform::RelayServer* r = fl.relay_of_slot(i);
    if (r != nullptr) {
      fnv_mix(*digest, static_cast<std::uint64_t>(r->stats().trunk_in));
      fnv_mix(*digest, static_cast<std::uint64_t>(r->stats().crash_dropped));
    }
  }
  return out;
}

// --------------------------------------------------------------------------

struct LegSeries {
  std::string name;
  std::uint64_t digest = 0;
  std::int64_t items = 0;
  std::vector<double> seconds;     // one per epoch (raw wall clock)
  std::vector<double> normalized;  // seconds / that epoch's calibration time
  double drift = 1.0;              // second-half / first-half throughput
  double drift_rel = 1.0;          // drift / median drift across legs
};

volatile std::uint64_t g_cal_sink = 0;

// A fixed integer spin measuring the machine's *current* speed. Leg times
// are divided by this before the drift comparison: machine-wide frequency
// scaling or co-tenant contention slows the spin and the legs alike (all
// are CPU-bound), so it cancels out, while a real regression in a leg slows
// only that leg relative to the spin.
double calibration_seconds() {
  std::uint64_t h = 14695981039346656037ULL;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < 20'000'000; ++i) {
    h = (h ^ i) * 1099511628211ULL;
  }
  const auto t1 = std::chrono::steady_clock::now();
  g_cal_sink = h;  // defeat dead-code elimination
  return std::chrono::duration<double>(t1 - t0).count();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void append_stats(std::string& out, const char* name, const RunningStats& s, bool last = false) {
  out += std::string{"    \""} + name + "\": {\"count\": " + std::to_string(s.count()) +
         ", \"mean\": " + json::format_number(s.mean()) +
         ", \"stddev\": " + json::format_number(s.stddev()) +
         ", \"min\": " + json::format_number(s.min()) +
         ", \"max\": " + json::format_number(s.max()) +
         ", \"sum\": " + json::format_number(s.sum()) + "}";
  out += last ? "\n" : ",\n";
}

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const int epochs = flags.integer("--epochs", 12, /*min=*/4);
  const int codec_frames = flags.integer("--codec-frames", 60, /*min=*/8);
  const int audio_frames = flags.integer("--audio-frames", 200, /*min=*/8);
  const int relay_n = flags.integer("--relay-n", 24, /*min=*/8);
  const double gate = flags.number("--gate", 0.0);
  const std::string baseline_path = flags.text("--baseline", "");
  const std::string out_path = flags.text("--out", "BENCH_SOAK.json");
  flags.reject_unread();

  std::printf("soak: %d epochs (codec %d frames, audio %d frames, relay n=%d), backend=%s, "
              "gate=%.2f\n",
              epochs, codec_frames, audio_frames, relay_n,
              dct_backend_name(active_dct_backend()), gate);

  const CodecLeg codec_leg{128, 96, codec_frames};
  const AudioLeg audio_leg{audio_frames};
  // Enough frames that the leg runs ~25 ms/epoch: the drift gate compares
  // best-of-half wall clocks, and a leg in the low-millisecond range is
  // dominated by scheduler noise rather than by its own speed.
  const int relay_frames = 300;
  // ~46 s simulated (all churn events fire early) and ~20 ms/epoch — above
  // the scheduler-noise floor for the same reason as relay_frames.
  const int fleet_frames = 1400;

  std::vector<LegSeries> legs(6);
  legs[0].name = "codec";
  legs[1].name = "relay";
  legs[2].name = "fairness";
  legs[3].name = "audio";
  legs[4].name = "timeline";
  legs[5].name = "fleet";
  auto run_leg = [&](std::size_t idx) -> LegResult {
    switch (idx) {
      case 0: return codec_leg.run();
      case 1: return run_relay_leg(relay_n, relay_frames);
      case 2: return run_fairness_leg();
      case 3: return audio_leg.run();
      case 4: return run_timeline_leg();
      default: return run_fleet_leg(fleet_frames);
    }
  };

  // One untimed warm-up epoch pins each leg's digest and work count.
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const LegResult warm = run_leg(i);
    legs[i].digest = warm.digest;
    legs[i].items = warm.items;
  }
  calibration_seconds();  // warm the spin too
  std::vector<double> cal_seconds;
  for (int e = 0; e < epochs; ++e) {
    const double cal = calibration_seconds();
    cal_seconds.push_back(cal);
    for (std::size_t i = 0; i < legs.size(); ++i) {
      const LegResult r = run_leg(i);
      if (r.digest != legs[i].digest || r.items != legs[i].items) {
        std::printf("FAIL: %s digest/work changed at epoch %d — state leaked across epochs\n",
                    legs[i].name.c_str(), e);
        return 1;
      }
      legs[i].seconds.push_back(r.seconds);
      legs[i].normalized.push_back(cal > 0 ? r.seconds / cal : r.seconds);
    }
  }

  // Drift: best epoch of the first half vs best of the second half, on
  // calibration-normalized times (best-of because noise only adds time;
  // normalized because machine-wide speed swings move every leg together).
  // The gate is on *relative* drift — each leg against the median drift
  // across legs — because sustained co-tenant load can slow a whole half of
  // the run and no absolute threshold survives that, while a genuine leak
  // (growing state, fragmentation) slows its leg relative to the others.
  // Absolute drift is still reported and lands in the trajectory JSON.
  bool drift_ok = true;
  std::vector<double> drifts;
  for (auto& leg : legs) {
    const auto half =
        leg.normalized.begin() + static_cast<std::ptrdiff_t>(leg.normalized.size() / 2);
    const double best1 = *std::min_element(leg.normalized.begin(), half);
    const double best2 = *std::min_element(half, leg.normalized.end());
    leg.drift = best2 > 0 ? best1 / best2 : 0.0;  // >1 means the run sped up
    drifts.push_back(leg.drift);
  }
  const double drift_med = median(std::vector<double>(drifts));
  for (auto& leg : legs) {
    leg.drift_rel = drift_med > 0 ? leg.drift / drift_med : 0.0;
    if (gate > 0.0 && leg.drift_rel < gate) drift_ok = false;
  }

  TextTable table{{"leg", "items/epoch", "median (ms)", "items/s", "drift", "rel drift"}};
  for (const auto& leg : legs) {
    const double med = median(std::vector<double>(leg.seconds));
    table.add_row({leg.name, std::to_string(leg.items), TextTable::num(med * 1e3, 2),
                   TextTable::num(med > 0 ? static_cast<double>(leg.items) / med : 0.0, 0),
                   TextTable::num(leg.drift, 3) + "x", TextTable::num(leg.drift_rel, 3) + "x"});
  }
  std::printf("%s\n", table.render().c_str());

  // Baseline check: digests and work counts must match exactly.
  bool baseline_ok = true;
  if (!baseline_path.empty()) {
    std::string text;
    if (!runner::read_text_file(baseline_path, &text)) {
      std::printf("FAIL: cannot read baseline %s\n", baseline_path.c_str());
      return 4;
    }
    json::Value root;
    try {
      root = json::parse(text);
    } catch (const std::exception& e) {
      std::printf("FAIL: baseline %s: %s\n", baseline_path.c_str(), e.what());
      return 4;
    }
    const json::Value* digests = root.find("digests");
    const json::Value* items = root.find("items_per_epoch");
    if (digests == nullptr || items == nullptr) {
      std::printf("FAIL: baseline %s missing digests/items_per_epoch\n", baseline_path.c_str());
      baseline_ok = false;
    } else {
      for (const auto& leg : legs) {
        const json::Value* d = digests->find(leg.name);
        const json::Value* it = items->find(leg.name);
        if (d == nullptr || d->as_string() != hex64(leg.digest)) {
          std::printf("FAIL: %s digest %s != baseline %s\n", leg.name.c_str(),
                      hex64(leg.digest).c_str(),
                      d != nullptr ? d->as_string().c_str() : "(missing)");
          baseline_ok = false;
        }
        if (it == nullptr || static_cast<std::int64_t>(it->as_number()) != leg.items) {
          std::printf("FAIL: %s items/epoch %lld != baseline\n", leg.name.c_str(),
                      static_cast<long long>(leg.items));
          baseline_ok = false;
        }
      }
    }
    std::printf("baseline %s: %s\n", baseline_path.c_str(), baseline_ok ? "match" : "MISMATCH");
  }

  // Report: ExperimentRunner-report shaped so `vcbench_cli report` renders
  // it; the epochs array is the raw time-series.
  std::string json = "{\n  \"label\": \"soak_trajectory\",\n";
  json += "  \"base_seed\": 424247,\n";
  json += "  \"sessions\": " + std::to_string(epochs) + ",\n";
  json += "  \"failures\": 0,\n";
  json += "  \"samples\": {\n";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const auto& leg = legs[i];
    RunningStats ms, rate;
    for (double s : leg.seconds) {
      ms.add(s * 1e3);
      if (s > 0) rate.add(static_cast<double>(leg.items) / s);
    }
    append_stats(json, (leg.name + ".epoch_ms").c_str(), ms);
    append_stats(json, (leg.name + ".items_per_s").c_str(), rate, i + 1 == legs.size());
  }
  json += "  },\n  \"counters\": {";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    json += "\"soak." + legs[i].name + ".items_per_epoch\": " + std::to_string(legs[i].items);
    json += i + 1 < legs.size() ? ", " : "";
  }
  json += "},\n";
  json += "  \"digests\": {";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    json += "\"" + legs[i].name + "\": \"" + hex64(legs[i].digest) + "\"";
    json += i + 1 < legs.size() ? ", " : "";
  }
  json += "},\n  \"items_per_epoch\": {";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    json += "\"" + legs[i].name + "\": " + std::to_string(legs[i].items);
    json += i + 1 < legs.size() ? ", " : "";
  }
  json += "},\n  \"drift\": {";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    json += "\"" + legs[i].name + "\": " + json::format_number(legs[i].drift);
    json += i + 1 < legs.size() ? ", " : "";
  }
  json += "},\n  \"drift_rel\": {";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    json += "\"" + legs[i].name + "\": " + json::format_number(legs[i].drift_rel);
    json += i + 1 < legs.size() ? ", " : "";
  }
  json += "},\n  \"gate\": " + json::format_number(gate) + ",\n";
  json += "  \"epochs\": [\n";
  for (int e = 0; e < epochs; ++e) {
    json += "    {\"epoch\": " + std::to_string(e);
    json += ", \"cal_ms\": " + json::format_number(cal_seconds[static_cast<std::size_t>(e)] * 1e3);
    for (const auto& leg : legs) {
      json += ", \"" + leg.name + "_ms\": " +
              json::format_number(leg.seconds[static_cast<std::size_t>(e)] * 1e3);
    }
    json += e + 1 < epochs ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";
  if (runner::write_text_file(out_path, json)) {
    std::printf("report written to %s\n", out_path.c_str());
  }

  if (!drift_ok) {
    for (const auto& leg : legs) {
      if (leg.drift_rel < gate) {
        std::printf("FAIL: %s drifted to %.3fx of the run's median leg drift (gate %.2f, "
                    "absolute drift %.3fx)\n",
                    leg.name.c_str(), leg.drift_rel, gate, leg.drift);
      }
    }
    return 2;
  }
  if (!baseline_ok) return 4;
  return 0;
}
