// QoE shootout: compare the three platforms side by side on one scenario —
// a host broadcasting a feed to N receivers — reporting video QoE, audio
// MOS, and data rates. Demonstrates the QoE and bandwidth-cap APIs.
//
//   ./qoe_shootout [N] [low|high] [cap_kbps]
//
// With a cap, runs the two-party bandwidth-constrained variant instead
// (Section 4.4); without, the N-receiver QoE experiment (Section 4.3).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/stats.h"
#include "common/table.h"
#include "core/vcbench.h"

int main(int argc, char** argv) {
  using namespace vc;
  const int n = argc > 1 ? std::atoi(argv[1]) : 2;
  const bool high_motion = argc > 2 && std::string(argv[2]) == "high";
  const double cap_kbps = argc > 3 ? std::atof(argv[3]) : 0.0;
  const auto motion =
      high_motion ? platform::MotionClass::kHighMotion : platform::MotionClass::kLowMotion;

  if (cap_kbps > 0) {
    std::printf("two-party call under a %.0f Kbps ingress cap (%s motion)\n\n", cap_kbps,
                high_motion ? "high" : "low");
    TextTable table{{"platform", "PSNR", "SSIM", "VIFp", "MOS-LQO", "delivered", "down Kbps"}};
    for (const auto id :
         {platform::PlatformId::kZoom, platform::PlatformId::kWebex, platform::PlatformId::kMeet}) {
      core::BwCapBenchmarkConfig cfg;
      cfg.platform = id;
      cfg.motion = motion;
      cfg.cap = DataRate::kbps(cap_kbps);
      cfg.media_duration = seconds(12);
      const auto r = core::run_bwcap_session(cfg, 5);
      // A score the session could not measure stays 0.
      table.add_row({std::string(platform_name(id)), TextTable::num(r.psnr, 1),
                     TextTable::num(r.ssim, 3), TextTable::num(r.vifp, 3),
                     TextTable::num(r.mos_lqo, 2), TextTable::num(r.delivery_ratio, 2),
                     TextTable::num(r.download_kbps, 0)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
  }

  std::printf("host US-East broadcasting %s-motion video to %d receiver(s)\n\n",
              high_motion ? "high" : "low", n);
  TextTable table{{"platform", "PSNR", "SSIM", "VIFp", "host up (Kbps)", "down (Kbps)"}};
  for (const auto id :
       {platform::PlatformId::kZoom, platform::PlatformId::kWebex, platform::PlatformId::kMeet}) {
    core::QoeBenchmarkConfig cfg;
    cfg.platform = id;
    cfg.motion = motion;
    cfg.receiver_sites = core::us_qoe_receiver_sites(n);
    cfg.media_duration = seconds(12);
    const auto r = core::run_qoe_session(cfg, 1);
    RunningStats psnr, ssim, vifp, download;
    for (const auto& rx : r.receivers) {
      download.add(rx.download_kbps);
      if (!rx.has_video_qoe) continue;
      psnr.add(rx.psnr);
      ssim.add(rx.ssim);
      vifp.add(rx.vifp);
    }
    table.add_row({std::string(platform_name(id)), TextTable::num(psnr.mean(), 1),
                   TextTable::num(ssim.mean(), 3), TextTable::num(vifp.mean(), 3),
                   TextTable::num(r.upload_kbps, 0), TextTable::num(download.mean(), 0)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
