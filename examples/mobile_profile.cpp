// Mobile profiler: what a one-hour call costs a phone — CPU, data volume,
// and battery — per platform and device/UI scenario (Section 5).
//
//   ./mobile_profile [zoom|webex|meet]
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "core/vcbench.h"

int main(int argc, char** argv) {
  using namespace vc;
  if (argc > 2) {
    std::fprintf(stderr, "usage: mobile_profile [zoom|webex|meet]\n");
    return 2;
  }
  const auto id = platform::platform_from_name(argc > 1 ? argv[1] : "zoom");
  if (!id) {
    std::fprintf(stderr, "mobile_profile: unknown platform '%s' (zoom|webex|meet)\n", argv[1]);
    return 2;
  }

  std::printf("mobile cost profile: %s (S10 high-end / J3 low-end, residential WiFi)\n\n",
              std::string(platform_name(*id)).c_str());
  TextTable table{{"scenario", "S10 CPU med (%)", "J3 CPU med (%)", "GB/hour (S10)",
                   "battery %/h (J3)", "hours on a full J3 charge"}};
  for (const auto scenario :
       {mobile::MobileScenario::kLM, mobile::MobileScenario::kHM, mobile::MobileScenario::kLMView,
        mobile::MobileScenario::kLMVideoView, mobile::MobileScenario::kLMOff}) {
    core::MobileBenchmarkConfig cfg;
    cfg.platform = *id;
    cfg.scenario = scenario;
    cfg.duration = seconds(45);
    // Two repetitions, each its own world, pooled per device.
    std::vector<double> s10_cpu, j3_cpu;
    RunningStats s10_download, j3_drain;
    for (int rep = 0; rep < 2; ++rep) {
      const auto r = core::run_mobile_session(cfg, 9 + static_cast<std::uint64_t>(rep) * 2917);
      s10_cpu.insert(s10_cpu.end(), r.s10_cpu.begin(), r.s10_cpu.end());
      j3_cpu.insert(j3_cpu.end(), r.j3_cpu.begin(), r.j3_cpu.end());
      s10_download.add(r.s10_download_kbps);
      j3_drain.add(r.j3_battery_pct_per_hour);
    }
    const double gb_per_hour = s10_download.mean() * 3600.0 / 8.0 / 1e6;
    const double drain = j3_drain.mean();
    table.add_row({std::string(scenario_name(scenario)), TextTable::num(median(s10_cpu), 0),
                   TextTable::num(median(j3_cpu), 0), TextTable::num(gb_per_hour, 2),
                   TextTable::num(drain, 1),
                   drain > 0 ? TextTable::num(100.0 / drain, 1) : "-"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("tip: screen-off audio-only roughly halves the battery drain (Finding 5).\n");
  return 0;
}
