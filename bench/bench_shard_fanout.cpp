// Intra-session relay fan-out A/B benchmark (PR 3).
//
// One meeting, N participants (N >= 20), every participant streaming video
// through a single RelayServer — the fan-out-bound regime where one ingest
// costs O(N) copy/scale/stage work. Three execution modes run interleaved
// (A/B/A/B..., defeating thermal and noise drift) and report median
// wall-clock over the rounds:
//   serial  — K=0, the plain fan-out loop;
//   staged  — K=4 with no pool: the sharded staging/merge path, inline on
//             the event-loop thread (isolates the staging overhead);
//   pooled  — K=4 on a ShardPool with auto-sized workers (0 on a 1-core
//             machine, where it degenerates to `staged`).
// Every mode's delivery transcript is FNV-hashed and must match `serial`
// byte-for-byte — the determinism contract, enforced here with real traffic.
//
// `--gate <ratio>` makes the binary exit non-zero when median(serial) /
// median(staged) falls below the ratio (e.g. --gate 0.90 fails a >10%
// staging regression); CI's perf-smoke job runs exactly that. `--out <path>`
// writes the machine-readable report (default BENCH_PR3.json in the CWD).
//
// A fourth interleaved mode, `traced-off`, re-runs the serial configuration
// with a flight-recorder Tracer attached but disabled — the state every
// instrumented hot path pays for when tracing is compiled in but off (one
// pointer load + branch per record site). `--trace-gate <ratio>` fails the
// run when median(serial) / median(traced-off) falls below the ratio;
// CI runs --trace-gate 0.98, the "tracing off costs <= 2%" contract. The
// in-process A/B comparison is deliberate: absolute baselines are too noisy
// on shared CI runners (see the PR3 comments above).
//
// Two more interleaved modes gate the PR 9 observability layer the same way:
// `metrics` attaches a MetricsRegistry to the network/relay (the A side),
// and `timeline-off` additionally arms a MetricsTimeline that is disabled —
// which must schedule nothing at all (structural zero, like an armed empty
// FaultPlan). `--timeline-gate <ratio>` fails (exit 4) when best(metrics) /
// best(timeline-off) falls below the ratio; CI runs --timeline-gate 0.98.
// `--timeline-out <path>` writes that gate's JSON report (default
// BENCH_PR9_timeline_gate.json). The same invocation also checks that a
// zero-rule HealthMonitor observing an *enabled* sampling timeline leaves
// the exported timeline bytes identical to an unobserved run (exit 5) —
// the armed-but-empty monitor contract.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/metrics_timeline.h"
#include "common/shard_pool.h"
#include "common/tracer.h"
#include "health/health_monitor.h"
#include "platform/relay.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;
using vcb::fnv_mix;
using vcb::kFnvBasis;

struct TrialResult {
  double seconds = 0.0;
  std::uint64_t digest = 0;  // FNV-1a over the full delivery transcript
  std::int64_t media_forwarded = 0;
};

struct Mode {
  std::string name;
  int shards = 0;
  bool use_pool = false;
  bool traced = false;    // attach a disabled Tracer to every hot path
  bool metered = false;   // attach a MetricsRegistry to network + relay
  bool timeline = false;  // additionally arm a disabled MetricsTimeline
  std::vector<double> seconds;
  std::uint64_t digest = 0;
  std::int64_t media_forwarded = 0;
};

/// Observability side-channel for a trial. attach_metrics alone is the A
/// side of the timeline gate; arm_disabled adds an armed-but-disabled
/// sampler (the B side, which must schedule nothing); sample arms an
/// enabled 50 ms sampler and exports its JSON (the armed-empty-monitor
/// byte-identity check).
struct TimelineProbe {
  bool attach_metrics = false;
  bool arm_disabled = false;
  bool sample = false;
  health::HealthMonitor* monitor = nullptr;
  std::string timeline_json;
};

TrialResult run_trial(int n, int frames, int shards, ShardPool* pool, Tracer* tracer,
                      TimelineProbe* probe = nullptr) {
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(3)), 99};
  platform::RelayServer relay{net, "relay", GeoPoint{38.9, -77.4}, 8801,
                              platform::RelayServer::ForwardingDelay{millis(2), 2.0}};
  relay.set_fan_out_sharding(pool, shards);
  if (tracer != nullptr) {
    // Attached-but-disabled: the exact state the <=2% overhead gate measures.
    net.set_tracer(tracer);
    relay.set_tracer(tracer);
  }
  MetricsRegistry registry;
  MetricsTimeline timeline{MetricsTimeline::Config{millis(50), 256}};
  if (probe != nullptr && (probe->attach_metrics || probe->arm_disabled || probe->sample)) {
    net.attach_metrics(registry);
    relay.attach_metrics(registry);
  }
  if (probe != nullptr && (probe->arm_disabled || probe->sample)) {
    timeline.set_enabled(probe->sample);
    if (probe->monitor != nullptr) {
      probe->monitor->bind(&registry, nullptr);
      timeline.set_observer(probe->monitor);
    }
    // Disabled arm must schedule nothing; an enabled one samples every 50 ms
    // for the byte-identity probe.
    timeline.arm(net.loop(), registry, SimTime::zero(), SimTime::zero() + seconds(10));
  }

  TrialResult out{};
  out.digest = kFnvBasis;
  std::vector<net::Host*> hosts;
  hosts.reserve(static_cast<std::size_t>(n));
  auto* digest = &out.digest;
  for (int i = 0; i < n; ++i) {
    net::Host& h = net.add_host("c" + std::to_string(i), GeoPoint{40.0, -75.0});
    auto& sock = h.udp_bind(100);
    const std::uint64_t rx_tag = static_cast<std::uint64_t>(i) << 48;
    sock.on_receive([digest, rx_tag, &net](const net::Packet& p) {
      fnv_mix(*digest, rx_tag | p.origin_id);
      fnv_mix(*digest, p.seq);
      fnv_mix(*digest, static_cast<std::uint64_t>(p.l7_len));
      fnv_mix(*digest, static_cast<std::uint64_t>(net.now().micros()));
    });
    relay.add_participant(1, static_cast<platform::ParticipantId>(i + 1), {h.ip(), 100});
    hosts.push_back(&h);
  }
  // Half the receivers pin explicit subscriptions (simulcast thumbnails and
  // a few unsubscribes), the rest take the forward-everything default — the
  // mix a gallery-view meeting produces.
  for (int i = 0; i < n; i += 2) {
    std::vector<platform::StreamSubscription> subs;
    for (int o = 0; o < n; ++o) {
      if (o == i) continue;
      const double scale = (i + o) % 11 == 0 ? 0.0 : ((o % 3 == 0) ? 0.25 : 1.0);
      subs.push_back({static_cast<platform::ParticipantId>(o + 1), scale});
    }
    relay.set_subscriptions(1, static_cast<platform::ParticipantId>(i + 1), std::move(subs));
  }

  // frames ingests per sender at a 33 ms cadence, staggered per sender.
  for (int f = 0; f < frames; ++f) {
    for (int i = 0; i < n; ++i) {
      net::Host* h = hosts[static_cast<std::size_t>(i)];
      const std::uint32_t origin = static_cast<std::uint32_t>(i + 1);
      const std::uint64_t seq = static_cast<std::uint64_t>(f);
      const std::int64_t l7 = 700 + 53 * ((f + i) % 13);
      net.loop().schedule_at(SimTime{f * 33'000 + i * 211},
                             [h, &relay, origin, seq, l7] {
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
  out.media_forwarded = relay.stats().media_forwarded;
  if (probe != nullptr && probe->sample) {
    timeline.finalize();
    probe->timeline_json = timeline.to_json();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int n = std::max(20, vcb::int_flag(argc, argv, "--n", 48));
  const int frames = vcb::int_flag(argc, argv, "--packets", 40);
  const int rounds = std::max(3, vcb::int_flag(argc, argv, "--rounds", 7));
  const int shards = std::max(1, vcb::int_flag(argc, argv, "--shards", 4));
  const double gate = vcb::flag_double(argc, argv, "--gate", 0.0);
  const double trace_gate = vcb::flag_double(argc, argv, "--trace-gate", 0.0);
  const double timeline_gate = vcb::flag_double(argc, argv, "--timeline-gate", 0.0);
  const std::string out_path = vcb::flag_string(argc, argv, "--out", "BENCH_PR3.json");
  const std::string timeline_out =
      vcb::flag_string(argc, argv, "--timeline-out", "BENCH_PR9_timeline_gate.json");

  std::printf("relay fan-out A/B: n=%d frames=%d rounds=%d shards=%d gate=%.2f trace-gate=%.2f "
              "timeline-gate=%.2f\n",
              n, frames, rounds, shards, gate, trace_gate, timeline_gate);

  auto make_mode = [](const char* name, int mode_shards, bool use_pool, bool traced, bool metered,
                      bool timeline) {
    Mode m;
    m.name = name;
    m.shards = mode_shards;
    m.use_pool = use_pool;
    m.traced = traced;
    m.metered = metered;
    m.timeline = timeline;
    return m;
  };
  std::vector<Mode> modes;
  modes.push_back(make_mode("serial", 0, false, false, false, false));
  modes.push_back(make_mode("traced-off", 0, false, true, false, false));
  modes.push_back(make_mode("metrics", 0, false, false, true, false));
  modes.push_back(make_mode("timeline-off", 0, false, false, true, true));
  modes.push_back(make_mode("staged", shards, false, false, false, false));
  modes.push_back(make_mode("pooled", shards, true, false, false, false));
  const int workers = ShardPool::auto_workers(shards);
  ShardPool pool{workers};
  Tracer tracer;  // never enabled: measures the compiled-in-but-off cost
  std::printf("pooled mode: %d worker thread(s) (auto for %d shards on this machine)\n", workers,
              shards);

  // One untimed warm-up per mode, then interleaved timed rounds.
  for (auto& m : modes) {
    TimelineProbe probe;
    probe.attach_metrics = m.metered;
    probe.arm_disabled = m.timeline;
    const TrialResult warm = run_trial(n, frames, m.shards, m.use_pool ? &pool : nullptr,
                                       m.traced ? &tracer : nullptr, &probe);
    m.digest = warm.digest;
    m.media_forwarded = warm.media_forwarded;
  }
  for (int r = 0; r < rounds; ++r) {
    for (auto& m : modes) {
      TimelineProbe probe;
      probe.attach_metrics = m.metered;
      probe.arm_disabled = m.timeline;
      const TrialResult t = run_trial(n, frames, m.shards, m.use_pool ? &pool : nullptr,
                                      m.traced ? &tracer : nullptr, &probe);
      m.seconds.push_back(t.seconds);
      if (t.digest != m.digest) {
        std::printf("FAIL: %s digest unstable across rounds\n", m.name.c_str());
        return 1;
      }
    }
  }

  // Armed-empty HealthMonitor byte-identity: an enabled sampling timeline
  // exports the same bytes whether or not a zero-rule monitor is observing
  // it (and the deliveries stay identical too, via the digest check below).
  TimelineProbe plain;
  plain.sample = true;
  const TrialResult sampled_plain = run_trial(n, frames, 0, nullptr, nullptr, &plain);
  health::HealthMonitor empty_monitor;
  TimelineProbe observed;
  observed.sample = true;
  observed.monitor = &empty_monitor;
  const TrialResult sampled_observed = run_trial(n, frames, 0, nullptr, nullptr, &observed);
  const bool monitor_invisible = plain.timeline_json == observed.timeline_json &&
                                 !plain.timeline_json.empty() &&
                                 sampled_plain.digest == sampled_observed.digest &&
                                 sampled_plain.digest == modes[0].digest;

  bool identical = true;
  for (const auto& m : modes) {
    if (m.digest != modes[0].digest || m.media_forwarded != modes[0].media_forwarded) {
      identical = false;
    }
  }

  const std::int64_t ingests = static_cast<std::int64_t>(n) * frames;
  std::string json = "{\n  \"benchmark\": \"relay_shard_fanout\",\n";
  json += "  \"n_participants\": " + std::to_string(n) + ",\n";
  json += "  \"ingests_per_trial\": " + std::to_string(ingests) + ",\n";
  json += "  \"media_forwarded_per_trial\": " + std::to_string(modes[0].media_forwarded) + ",\n";
  json += "  \"rounds\": " + std::to_string(rounds) + ",\n  \"modes\": [\n";

  TextTable table{{"mode", "median (ms)", "ingests/s", "vs serial"}};
  double serial_median = 0.0;
  double staged_speedup = 1.0;
  double traced_speedup = 1.0;
  double timeline_speedup = 1.0;
  double metrics_best = 0.0;
  double timeline_best = 0.0;
  auto best_of = [](const std::vector<double>& s) {
    return s.empty() ? 0.0 : *std::min_element(s.begin(), s.end());
  };
  for (std::size_t i = 0; i < modes.size(); ++i) {
    auto& m = modes[i];
    const double med = median(m.seconds);
    if (i == 0) serial_median = med;
    const double speedup = med > 0 ? serial_median / med : 0.0;
    if (m.name == "staged") staged_speedup = speedup;
    if (m.name == "traced-off") {
      // Gate on best-of-rounds, not medians: scheduler noise only ever adds
      // time, so min/min isolates the intrinsic cost of the disabled hooks
      // from the +-5% round-to-round jitter of shared runners.
      const double serial_best = best_of(modes[0].seconds);
      const double traced_best = best_of(m.seconds);
      traced_speedup = traced_best > 0 ? serial_best / traced_best : 0.0;
    }
    if (m.name == "metrics") metrics_best = best_of(m.seconds);
    if (m.name == "timeline-off") timeline_best = best_of(m.seconds);
    table.add_row({m.name, TextTable::num(med * 1e3, 2),
                   TextTable::num(med > 0 ? static_cast<double>(ingests) / med : 0.0, 0),
                   TextTable::num(speedup, 3) + "x"});
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\": \"%s\", \"median_seconds\": %.6f, \"ingests_per_second\": "
                  "%.0f, \"speedup_vs_serial\": %.3f}%s\n",
                  m.name.c_str(), med, med > 0 ? static_cast<double>(ingests) / med : 0.0,
                  speedup, i + 1 < modes.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  json += std::string{"  \"deliveries_byte_identical\": "} + (identical ? "true" : "false") +
          ",\n";
  char tail[192];
  std::snprintf(tail, sizeof(tail),
                "  \"gate\": %.2f,\n  \"staged_speedup\": %.3f,\n"
                "  \"trace_gate\": %.2f,\n  \"traced_off_speedup\": %.3f\n}\n",
                gate, staged_speedup, trace_gate, traced_speedup);
  json += tail;

  // The disabled-sampler gate compares against the `metrics` mode, not
  // `serial`: attaching the registry is the cost the caller opted into; the
  // armed-but-disabled timeline on top must be structurally free.
  timeline_speedup = timeline_best > 0.0 ? metrics_best / timeline_best : 1.0;

  std::printf("%s\n", table.render().c_str());
  std::printf("deliveries byte-identical across modes: %s\n",
              identical ? "yes" : "NO — determinism regression!");
  std::printf("armed-empty HealthMonitor invisible in timeline bytes: %s\n",
              monitor_invisible ? "yes" : "NO — observer perturbed the export!");
  if (runner::write_text_file(out_path, json)) {
    std::printf("report written to %s\n", out_path.c_str());
  }
  if (timeline_gate > 0.0) {
    char tl_json[512];
    std::snprintf(tl_json, sizeof(tl_json),
                  "{\n  \"benchmark\": \"timeline_disabled_gate\",\n  \"rounds\": %d,\n"
                  "  \"best_metrics_seconds\": %.6f,\n  \"best_timeline_off_seconds\": %.6f,\n"
                  "  \"timeline_off_speed_ratio\": %.4f,\n  \"gate\": %.2f,\n"
                  "  \"armed_empty_monitor_byte_identical\": %s\n}\n",
                  rounds, metrics_best, timeline_best, timeline_speedup,
                  timeline_gate, monitor_invisible ? "true" : "false");
    if (runner::write_text_file(timeline_out, tl_json)) {
      std::printf("timeline gate report written to %s\n", timeline_out.c_str());
    }
  }

  if (!identical) return 1;
  if (gate > 0.0 && staged_speedup < gate) {
    std::printf("FAIL: staged fan-out speedup %.3fx below gate %.2fx\n", staged_speedup, gate);
    return 2;
  }
  if (trace_gate > 0.0 && traced_speedup < trace_gate) {
    std::printf("FAIL: disabled-tracer overhead ratio %.3fx below trace gate %.2fx\n",
                traced_speedup, trace_gate);
    return 3;
  }
  if (timeline_gate > 0.0 && timeline_speedup < timeline_gate) {
    std::printf("FAIL: disabled-sampler overhead ratio %.3fx below timeline gate %.2fx\n",
                timeline_speedup, timeline_gate);
    return 4;
  }
  if (!monitor_invisible) {
    std::printf("FAIL: armed-but-empty HealthMonitor changed the exported timeline bytes\n");
    return 5;
  }
  return 0;
}
