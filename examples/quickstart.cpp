// Quickstart: measure streaming lag and service-endpoint behavior for one
// platform with a miniature version of the paper's Section 4.2 experiment —
// a US-East host flashing a periodic video signal to six US participants.
//
//   ./quickstart [zoom|webex|meet]
#include <cstdio>
#include <string>

#include "common/stats.h"
#include "common/table.h"
#include "core/vcbench.h"

int main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: quickstart [zoom|webex|meet]\n");
    return 2;
  }
  const auto platform = vc::platform::platform_from_name(argc > 1 ? argv[1] : "zoom");
  if (!platform) {
    std::fprintf(stderr, "quickstart: unknown platform '%s' (zoom|webex|meet)\n", argv[1]);
    return 2;
  }

  vc::core::LagBenchmarkConfig cfg;
  cfg.platform = *platform;
  cfg.host_site = "US-East";
  cfg.participant_sites = vc::core::us_participant_sites(cfg.host_site);
  cfg.sessions = 3;                      // the paper runs 20
  cfg.session_duration = vc::seconds(40);  // the paper runs 2-minute sessions

  std::printf("vcbench quickstart: %s, host US-East, %d sessions x %.0f s\n\n",
              std::string(vc::platform::platform_name(*platform)).c_str(), cfg.sessions,
              cfg.session_duration.seconds());

  const auto result = vc::core::run_lag_benchmark(cfg);

  vc::TextTable table({"participant", "median lag (ms)", "p90 lag (ms)", "mean RTT (ms)",
                       "samples", "endpoints"});
  for (const auto& p : result.participants) {
    const double rtt = p.session_rtt_ms.empty()
                           ? 0.0
                           : vc::median(std::vector<double>(p.session_rtt_ms));
    table.add_row({p.label,
                   p.lags_ms.empty() ? "-" : vc::TextTable::num(vc::median(p.lags_ms), 1),
                   p.lags_ms.empty() ? "-" : vc::TextTable::num(vc::quantile(p.lags_ms, 0.9), 1),
                   vc::TextTable::num(rtt, 1), std::to_string(p.lags_ms.size()),
                   std::to_string(p.distinct_endpoints)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("dominant media port: UDP/%u (Zoom=8801, Webex=9000, Meet=19305)\n",
              result.dominant_media_port);
  std::printf("mean distinct endpoints met per client: %.1f\n", result.mean_distinct_endpoints);
  return 0;
}
