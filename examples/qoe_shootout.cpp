// QoE shootout: compare the three platforms side by side on one scenario —
// a host broadcasting a feed to N receivers — reporting video QoE, audio
// MOS, and data rates. Demonstrates the QoE API, uncapped and capped.
//
//   ./qoe_shootout [N] [low|high] [cap_kbps]
//
// With a cap, runs the two-party bandwidth-constrained variant instead
// (Section 4.4); without, the N-receiver QoE experiment (Section 4.3). A
// malformed or extra argument exits 2 before anything runs.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/stats.h"
#include "common/table.h"
#include "core/vcbench.h"

namespace {

/// Reads all of `text` as a T; false on a malformed or partial number.
template <typename T>
bool read_number(const char* text, T& value) {
  const char* end = text + std::strlen(text);
  const auto [last, ec] = std::from_chars(text, end, value);
  return ec == std::errc{} && last == end;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vc;
  int n = 2;
  const std::string motion_name = argc > 2 ? argv[2] : "low";
  double cap_kbps = 0.0;
  if (argc > 4 || (argc > 1 && (!read_number(argv[1], n) || n < 1 || n > 5)) ||
      (motion_name != "low" && motion_name != "high") ||
      (argc > 3 && (!read_number(argv[3], cap_kbps) || !std::isfinite(cap_kbps) || cap_kbps < 0))) {
    std::fprintf(stderr, "usage: qoe_shootout [N in 1..5] [low|high] [cap_kbps >= 0]\n");
    return 2;
  }
  const bool high_motion = motion_name == "high";
  const auto motion =
      high_motion ? platform::MotionClass::kHighMotion : platform::MotionClass::kLowMotion;

  if (cap_kbps > 0) {
    std::printf("two-party call under a %.0f Kbps ingress cap (%s motion)\n\n", cap_kbps,
                high_motion ? "high" : "low");
    TextTable table{{"platform", "PSNR", "SSIM", "VIFp", "MOS-LQO", "delivered", "down Kbps"}};
    for (const auto id :
         {platform::PlatformId::kZoom, platform::PlatformId::kWebex, platform::PlatformId::kMeet}) {
      core::QoeBenchmarkConfig cfg = core::bwcap_config(DataRate::kbps(cap_kbps));
      cfg.platform = id;
      cfg.motion = motion;
      cfg.media_duration = seconds(12);
      const auto r = core::run_qoe_session(cfg, 5).receivers.front();
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
