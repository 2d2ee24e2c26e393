// Fig 2: packet streams observed on the meeting host (sender) and another
// user (receiver) during the flash-feed lag measurement, plus the per-flash
// lags the big-packet method extracts.
//
// The repetitions run on runner::ExperimentRunner: each repetition is an
// independent single-session lag run recording per-flash lags and their
// quantiles (lag.US-West.p10..p90 — the shape `vcbench_cli report --cdf`
// renders). The run executes once on one thread and once on eight; the two
// aggregate reports must be bit-identical. The ASCII timeline illustration
// comes from one extra direct run (packet traces don't travel through run
// reports).
#include <cstdio>

#include "bench/bench_util.h"
#include "capture/lag_detector.h"
#include "capture/timeline.h"
#include "core/lag_benchmark.h"
#include "runner/experiment_runner.h"

namespace {

vc::core::LagBenchmarkConfig fig2_config(bool paper, std::uint64_t seed) {
  vc::core::LagBenchmarkConfig cfg;
  cfg.platform = vc::platform::PlatformId::kZoom;
  cfg.host_site = "US-East";
  cfg.participant_sites = {"US-West"};
  cfg.sessions = 1;
  cfg.session_duration = paper ? vc::seconds(120) : vc::seconds(24);
  cfg.seed = seed;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vc;
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Fig 2 — video lag measurement from packet streams (Zoom, US)", paper);

  // Timeline illustration from one direct run.
  const auto result = core::run_lag_benchmark(fig2_config(paper, 1));
  const double window_sec = 12.0;
  const auto tx = capture::timeline_points(result.sample_sender_trace, net::Direction::kOutgoing);
  const auto rx = capture::timeline_points(result.sample_receiver_trace, net::Direction::kIncoming);
  std::printf("packet timeline, first %.0f s ('#' = packet > 200 B, '.' = smaller):\n\n", window_sec);
  std::printf("sender   |%s|\n", capture::render_ascii_timeline(tx, window_sec).c_str());
  std::printf("receiver |%s|\n\n", capture::render_ascii_timeline(rx, window_sec).c_str());

  const auto tx_events =
      capture::detect_flash_events(result.sample_sender_trace, net::Direction::kOutgoing);
  const auto rx_events =
      capture::detect_flash_events(result.sample_receiver_trace, net::Direction::kIncoming);
  const auto lags = capture::match_lags_ms(tx_events, rx_events);

  TextTable table{{"flash #", "sent at (s)", "received at (s)", "lag (ms)"}};
  for (std::size_t i = 0; i < lags.size() && i < tx_events.size(); ++i) {
    table.add_row({std::to_string(i + 1), TextTable::num(tx_events[i].at.seconds(), 3),
                   TextTable::num(rx_events[i].at.seconds(), 3), TextTable::num(lags[i], 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("flashes detected: sender=%zu receiver=%zu, lags matched=%zu\n", tx_events.size(),
              rx_events.size(), lags.size());

  // Repetition sweep on the runner.
  const std::size_t reps = paper ? 4 : 2;
  const auto task = [paper](runner::SessionContext& ctx) {
    const auto r = core::run_lag_benchmark(fig2_config(paper, ctx.seed));
    const auto& p = r.participants.front();
    ctx.sample("lag.US-West.flashes", static_cast<double>(p.lags_ms.size()));
    for (double lag : p.lags_ms) ctx.sample("lag.US-West.ms", lag);
    vcb::sample_quantiles(ctx, "lag.US-West", p.lags_ms);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 42;
  rc.label = "fig2_lag_method";
  const auto run = vcb::run_checked(rc, reps, task);

  const auto* med = run.report.find_sample("lag.US-West.p50");
  std::printf("median lag US-East -> US-West over %zu repetitions: %.1f ms "
              "(paper: ~50 ms upper range of 20-50)\n",
              reps, med != nullptr ? med->mean() : 0.0);
  std::printf("render the lag CDF: vcbench_cli report bench_fig2_lag_method.report.json "
              "--cdf lag.US-West\n");
  return run.finish("bench_fig2_lag_method.report.json");
}
