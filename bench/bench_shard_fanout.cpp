// Relay fan-out A/B gates.
//
// One meeting, 48 participants, every participant streaming 40 video frames
// through a single RelayServer — the fan-out-bound regime where one ingest
// costs O(N) copy/scale/stage work. Two vcb::invisibility_gate pairs run
// over that one workload (one session per pass, interleaved rounds,
// best-of-rounds wall clock because scheduler noise only ever adds time):
//   --trace-gate     plain vs traced-off (a flight-recorder Tracer attached
//                    but disabled: one pointer load + branch per record
//                    site); CI runs 0.98, "tracing off costs <= 2%", exit 3;
//   --timeline-gate  metrics (a MetricsRegistry on network + relay, the cost
//                    the caller opted into) vs timeline-off (plus an armed
//                    but disabled MetricsTimeline, which must schedule
//                    nothing); CI runs 0.98, exit 4.
// The in-process A/B is deliberate: absolute baselines are too noisy on
// shared CI runners. Every pass's delivery transcript is FNV-hashed into its
// aggregate and must match an untimed plain run's byte-for-byte (exit 1).
// The run also checks that a zero-rule HealthMonitor observing an
// enabled sampling timeline leaves the exported timeline bytes identical to
// an unobserved run (exit 5) — the armed-but-empty monitor contract.
// `--out <path>` writes the gate reports as one JSON array (default
// bench_shard_fanout.report.json).
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/metrics_timeline.h"
#include "common/tracer.h"
#include "health/health_monitor.h"
#include "platform/relay.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;
using vcb::fnv_mix;

constexpr int kParticipants = 48;
constexpr int kFrames = 40;

/// What one trial runs with besides the fan-out itself.
struct Setup {
  Tracer* tracer = nullptr;    // attached but never enabled
  bool metered = false;        // MetricsRegistry on network + relay
  bool timeline_off = false;   // + an armed-but-disabled MetricsTimeline
  bool sample = false;         // + an enabled 50 ms sampler, exported
  health::HealthMonitor* monitor = nullptr;  // observes the enabled sampler
};

struct Trial {
  std::uint64_t digest = vcb::kFnvBasis;  // FNV-1a over the delivery transcript
  std::int64_t media_forwarded = 0;
  std::string timeline_json;  // the enabled sampler's export
};

Trial run_trial(const Setup& setup) {
  MetricsRegistry registry;
  MetricsTimeline timeline{MetricsTimeline::Config{millis(50), 256}};
  const bool metered = setup.metered || setup.timeline_off || setup.sample;
  net::Network net{std::make_unique<net::FixedLatencyModel>(millis(3)), 99,
                   {.metrics = metered ? &registry : nullptr, .tracer = setup.tracer}};
  platform::RelayServer relay{net, "relay", GeoPoint{38.9, -77.4}, 8801,
                              platform::RelayServer::ForwardingDelay{millis(2), 2.0}};
  if (setup.timeline_off || setup.sample) {
    timeline.set_enabled(setup.sample);
    if (setup.monitor != nullptr) {
      setup.monitor->bind(&registry, nullptr);
      timeline.set_observer(setup.monitor);
    }
    timeline.arm(net.loop(), registry, SimTime::zero(), SimTime::zero() + seconds(10));
  }

  Trial out;
  std::vector<net::Host*> hosts;
  hosts.reserve(kParticipants);
  auto* digest = &out.digest;
  for (int i = 0; i < kParticipants; ++i) {
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
  for (int i = 0; i < kParticipants; i += 2) {
    std::vector<platform::StreamSubscription> subs;
    for (int o = 0; o < kParticipants; ++o) {
      if (o == i) continue;
      const double scale = (i + o) % 11 == 0 ? 0.0 : ((o % 3 == 0) ? 0.25 : 1.0);
      subs.push_back({static_cast<platform::ParticipantId>(o + 1), scale});
    }
    relay.set_subscriptions(1, static_cast<platform::ParticipantId>(i + 1), std::move(subs));
  }

  // kFrames ingests per sender at a 33 ms cadence, staggered per sender.
  for (int f = 0; f < kFrames; ++f) {
    for (int i = 0; i < kParticipants; ++i) {
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

  net.loop().run();
  out.media_forwarded = relay.stats().media_forwarded;
  if (setup.sample) {
    timeline.finalize();
    out.timeline_json = timeline.to_json();
  }
  return out;
}

/// One gate pass: runs `setup`, records its transcript digest and forwarded
/// count, and throws when the deliveries differ from the plain run's.
runner::ExperimentRunner::Task trial_task(const Setup& setup, const Trial& plain) {
  return [setup, &plain](runner::SessionContext& ctx) {
    const Trial t = run_trial(setup);
    if (t.digest != plain.digest || t.media_forwarded != plain.media_forwarded) {
      throw std::runtime_error("deliveries differ from the plain run");
    }
    vcb::sample_digest(ctx, "fanout.digest", t.digest);
    ctx.sample("fanout.media_forwarded", static_cast<double>(t.media_forwarded));
  };
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = vcb::int_flag(argc, argv, "--rounds", 7);
  const double trace_gate = vcb::flag_double(argc, argv, "--trace-gate", 0.0);
  const double timeline_gate = vcb::flag_double(argc, argv, "--timeline-gate", 0.0);
  const std::string out_path =
      vcb::flag_string(argc, argv, "--out", "bench_shard_fanout.report.json");
  vcb::reject_unread_flags(argc, argv);

  Tracer tracer;  // never enabled: measures the compiled-in-but-off cost
  std::printf("relay fan-out A/B: n=%d frames=%d rounds=%d\n", kParticipants, kFrames, rounds);

  // Untimed check: an enabled sampler must export the same bytes (and
  // deliveries) whether or not a zero-rule monitor is observing it.
  const Trial plain = run_trial({});
  health::HealthMonitor empty_monitor;
  const Trial sampled = run_trial({.sample = true});
  const Trial observed = run_trial({.sample = true, .monitor = &empty_monitor});
  const bool monitor_invisible = !sampled.timeline_json.empty() &&
                                 sampled.timeline_json == observed.timeline_json &&
                                 sampled.digest == plain.digest &&
                                 observed.digest == plain.digest;
  std::printf("armed-empty HealthMonitor invisible in timeline bytes: %s\n",
              monitor_invisible ? "yes" : "NO — observer perturbed the export!");

  struct Pair {
    const char* label;
    Setup off, armed;
    double ratio;
    int slow_exit;
  };
  const Pair pairs[] = {
      {"shard_fanout_tracer_gate", {}, {.tracer = &tracer}, trace_gate, 3},
      {"shard_fanout_timeline_gate", {.metered = true},
       {.metered = true, .timeline_off = true}, timeline_gate, 4},
  };
  int code = 0;
  int slow_exit = 0;
  std::string reports;
  for (const Pair& p : pairs) {
    const auto make_task = [&](bool armed) { return trial_task(armed ? p.armed : p.off, plain); };
    const vcb::GateRun run =
        vcb::invisibility_gate(p.label, make_task, /*n=*/1, /*base_seed=*/99, rounds, p.ratio);
    if (run.code == 1) code = 1;
    if (run.code == 3 && slow_exit == 0) slow_exit = p.slow_exit;
    if (!run.json.empty()) reports += (reports.empty() ? "[\n" : ",\n") + run.json;
  }
  if (!reports.empty() && runner::write_text_file(out_path, reports + "\n]\n")) {
    std::printf("report written to %s\n", out_path.c_str());
  }

  if (code != 0) return code;
  if (slow_exit != 0) return slow_exit;
  if (!monitor_invisible) {
    std::printf("FAIL: armed-but-empty HealthMonitor changed the exported timeline bytes\n");
    return 5;
  }
  return 0;
}
