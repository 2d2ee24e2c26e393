// Fig 3 (and Section 4.2's endpoint counts): service-endpoint architecture
// per platform — designated media ports, per-session endpoint churn, and the
// relay topology discovered from traffic alone.
//
// Paper anchors: UDP/8801 (Zoom), UDP/9000 (Webex), UDP/19305 (Meet); over
// 20 sessions a client meets on average 20 / 19.5 / 1.8 distinct endpoints.
//
// The three platforms run as independent runner::ExperimentRunner tasks,
// once on one thread and once on eight; the two aggregate reports must be
// bit-identical, and the table below is rendered from the report itself.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/lag_benchmark.h"
#include "runner/experiment_runner.h"

int main(int argc, char** argv) {
  using namespace vc;
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Fig 3 — videoconferencing service endpoints", paper);

  const auto& platforms = vcb::all_platforms();
  const int sessions = paper ? 20 : 10;
  const SimDuration duration = paper ? seconds(120) : seconds(30);

  const auto task = [&platforms, sessions, duration](runner::SessionContext& ctx) {
    const auto id = platforms[ctx.task_index];
    core::LagBenchmarkConfig cfg;
    cfg.platform = id;
    cfg.host_site = "US-East";
    cfg.participant_sites = core::us_participant_sites(cfg.host_site);
    cfg.sessions = sessions;
    cfg.session_duration = duration;
    cfg.seed = ctx.seed;
    const auto result = core::run_lag_benchmark(cfg);
    const std::string base{platform_name(id)};
    ctx.sample(base + ".mean_distinct_endpoints", result.mean_distinct_endpoints);
    ctx.sample(base + ".dominant_port", static_cast<double>(result.dominant_media_port));
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 101;
  rc.label = "fig3_endpoints";
  const auto run = vcb::run_checked(rc, platforms.size(), task);
  const auto& report = run.report;

  TextTable table{{"platform", "media port", "paper port", "endpoints/client",
                   "paper endpoints", "topology"}};
  for (const auto id : platforms) {
    const std::string base{platform_name(id)};
    const auto* endpoints = report.find_sample(base + ".mean_distinct_endpoints");
    const auto* port = report.find_sample(base + ".dominant_port");
    const char* expected_port = id == platform::PlatformId::kZoom    ? "8801"
                                : id == platform::PlatformId::kWebex ? "9000"
                                                                     : "19305";
    const char* paper_endpoints = id == platform::PlatformId::kZoom    ? "20"
                                  : id == platform::PlatformId::kWebex ? "19.5"
                                                                       : "1.8";
    const char* topology =
        id == platform::PlatformId::kMeet
            ? "per-client nearby endpoints, relayed between endpoints"
            : "single endpoint per session, all participants via it";
    table.add_row({base,
                   port != nullptr
                       ? "UDP/" + std::to_string(static_cast<int>(port->mean()))
                       : "-",
                   expected_port,
                   endpoints != nullptr
                       ? TextTable::num(endpoints->mean(), 1) + " (over " +
                             std::to_string(sessions) + ")"
                       : "-",
                   paper_endpoints + std::string(" (over 20)"), topology});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Zoom/Webex churn a fresh endpoint almost every session; Meet clients\n"
              "stick to one or two nearby endpoints across sessions.\n");

  return run.finish("bench_fig3_endpoints.report.json");
}
