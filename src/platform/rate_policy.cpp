#include "platform/rate_policy.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iterator>
#include <stdexcept>

namespace vc::platform {

std::string_view platform_name(PlatformId id) {
  switch (id) {
    case PlatformId::kZoom: return "Zoom";
    case PlatformId::kWebex: return "Webex";
    case PlatformId::kMeet: return "Meet";
  }
  return "?";
}

std::optional<PlatformId> platform_from_name(std::string_view name) {
  for (const PlatformId id : {PlatformId::kZoom, PlatformId::kWebex, PlatformId::kMeet}) {
    if (std::ranges::equal(name, platform_name(id),
                           [](char a, char b) { return a == std::tolower(b); })) {
      return id;
    }
  }
  return std::nullopt;
}

const RateProfile& rate_profile(PlatformId id) {
  // Sources (paper sections): Fig 15 for cloud send rates and variability;
  // Section 4.3.1 for Meet's two-party burst and Zoom's P2P bump; Fig 17–18
  // for adaptation floors/agility; Section 5, Fig 19b and Table 4 for the
  // mobile subscription scales.
  static const RateProfile kZoom{
      .video_two_party = DataRate::mbps(1.0),
      .video_multi_party = DataRate::kbps(720),
      .low_motion_factor = 0.93,   // "least difference (5–10%)"
      .session_sigma = 0.04,
      .in_session_sigma = 0.02,
      .min_video_rate = DataRate::kbps(280),  // holds QoE until ~250 Kbps cap
      .loss_backoff = 0.75,
      .clean_recovery = 1.04,
      .low_end_scale = 1.0,        // "sticks to a default rate" on J3
      .gallery_tile_scale = 0.45,  // one tile ≈ 0.33 Mbps, four ≈ 0.65 (Table 4)
      .gallery_effective = true,
      .preview_scale = 0.0,
      .background_scale = 0.015,   // small rate bump in full screen as N grows
      .mobile_main_rate = DataRate::kbps(850),
  };
  static const RateProfile kWebex{
      .video_two_party = DataRate::mbps(1.9),
      .video_multi_party = DataRate::mbps(1.9),  // highest multi-user rate
      .low_motion_factor = 0.52,   // low motion "almost halves" bandwidth
      .session_sigma = 0.01,       // "virtually no fluctuation"
      .in_session_sigma = 0.005,
      .min_video_rate = DataRate::mbps(1.4),  // barely adapts → stalls <1 Mbps
      .loss_backoff = 0.97,
      .clean_recovery = 1.01,
      .low_end_scale = 0.5,        // J3 served 0.9 vs S10 1.76 Mbps
      .gallery_tile_scale = 0.0,   // budget-based, see subscriptions()
      .gallery_effective = true,
      .preview_scale = 0.0,
      .background_scale = 0.0,
      .mobile_main_rate = DataRate::mbps(1.76),
  };
  static const RateProfile kMeet{
      .video_two_party = DataRate::mbps(1.8),  // 1.6–2.0 Mbps two-party burst
      .video_multi_party = DataRate::kbps(640),
      .low_motion_factor = 0.8,    // ~20% reduction
      .session_sigma = 0.18,       // "most dynamic rate changes"
      .in_session_sigma = 0.08,
      .min_video_rate = DataRate::kbps(180),  // most graceful degradation
      .loss_backoff = 0.85,
      .clean_recovery = 1.02,
      .low_end_scale = 1.0,        // ignores target device
      .gallery_tile_scale = 0.0,
      .gallery_effective = false,  // no gallery support
      .preview_scale = 0.035,      // small always-on previews (Table 4)
      .background_scale = 0.0,
      .mobile_main_rate = DataRate::mbps(2.05),
  };
  switch (id) {
    case PlatformId::kZoom: return kZoom;
    case PlatformId::kWebex: return kWebex;
    case PlatformId::kMeet: return kMeet;
  }
  throw std::invalid_argument{"unknown platform"};
}

abr::TierLadder tier_ladder(PlatformId id) {
  const RateProfile& p = rate_profile(id);
  // Geometric rungs floor → two-party max; the 1.5× step matches typical
  // simulcast layer spacing and gives Zoom 5, Webex 2 and Meet 8 rungs.
  std::vector<DataRate> rates;
  DataRate r = p.min_video_rate;
  while (static_cast<double>(r.bits_per_second()) * 1.0 <
         0.95 * static_cast<double>(p.video_two_party.bits_per_second())) {
    rates.push_back(r);
    r = r * 1.5;
  }
  rates.push_back(p.video_two_party);

  // Frame height each budget buys, spread over the canonical resolutions.
  static constexpr int kHeights[] = {144, 180, 240, 288, 360, 480, 720};
  constexpr int kHeightCount = static_cast<int>(std::size(kHeights));
  abr::TierLadder ladder;
  const int n = static_cast<int>(rates.size());
  for (int i = 0; i < n; ++i) {
    const int hi = n <= 1 ? kHeightCount - 1 : (i * (kHeightCount - 1) + (n - 1) / 2) / (n - 1);
    ladder.tiers.push_back(abr::Tier{rates[static_cast<std::size_t>(i)], kHeights[hi]});
  }
  return ladder;
}

DataRate session_video_rate(PlatformId id, int participants, MotionClass motion, Rng& rng) {
  if (participants < 2) throw std::invalid_argument{"a session needs at least two participants"};
  const RateProfile& p = rate_profile(id);
  DataRate base = participants == 2 ? p.video_two_party : p.video_multi_party;
  if (motion == MotionClass::kLowMotion) base = base * p.low_motion_factor;
  const double jitter = p.session_sigma > 0 ? rng.lognormal(0.0, p.session_sigma) : 1.0;
  return base * jitter;
}

std::vector<StreamSubscription> subscriptions(PlatformId id, ViewMode view, DeviceClass device,
                                              const std::vector<SenderInfo>& senders) {
  const RateProfile& p = rate_profile(id);
  std::vector<StreamSubscription> subs;
  if (senders.empty() || view == ViewMode::kAudioOnly) return subs;

  const double device_scale = device == DeviceClass::kMobileLowEnd ? p.low_end_scale : 1.0;
  const int tiles = std::min<int>(4, static_cast<int>(senders.size()));

  // Meet has no gallery: both views render main + previews (footnote 6).
  const bool gallery = view == ViewMode::kGallery && p.gallery_effective;

  if (!gallery) {
    // Full screen: the first sender is the displayed main stream.
    subs.push_back(StreamSubscription{senders[0].id, device_scale});
    for (std::size_t i = 1; i < senders.size(); ++i) {
      double extra = 0.0;
      if (p.preview_scale > 0 && static_cast<int>(i) < tiles) extra = p.preview_scale;
      if (p.background_scale > 0) extra = std::max(extra, p.background_scale);
      if (extra > 0) subs.push_back(StreamSubscription{senders[i].id, extra * device_scale});
    }
    return subs;
  }

  if (id == PlatformId::kWebex) {
    bool mobile_camera_present = false;
    for (const auto& s : senders) {
      if (s.device != DeviceClass::kCloudVm) mobile_camera_present = true;
    }
    if (mobile_camera_present) {
      // With phone cameras in the gallery, Webex abandons its budget and
      // serves each tile at half rate — markedly less data-efficient
      // (Section 5: the J3's download more than doubles in LM-Video-View).
      for (int i = 0; i < tiles; ++i) {
        subs.push_back(StreamSubscription{senders[static_cast<std::size_t>(i)].id,
                                          0.5 * device_scale});
      }
      return subs;
    }
    // Gallery budget split across tiles — and the budget itself *shrinks*
    // with more tiles, the paper's counter-intuitive rate decrease with
    // visible quality degradation (Table 4: 0.57 → 0.43 Mbps).
    const double budget_scale = std::max(0.18, 0.30 * (1.0 - 0.08 * (tiles - 1)));
    const double per_tile = budget_scale / tiles * device_scale;
    for (int i = 0; i < tiles; ++i) {
      subs.push_back(StreamSubscription{senders[static_cast<std::size_t>(i)].id, per_tile});
    }
    return subs;
  }

  // Zoom-style gallery: each tile at a lower simulcast layer; smaller tiles
  // (more participants) use lower layers still, so total rate roughly
  // doubles from one tile to four rather than quadrupling (Table 4).
  const double tile_scale = p.gallery_tile_scale / std::sqrt(static_cast<double>(tiles));
  for (int i = 0; i < tiles; ++i) {
    subs.push_back(
        StreamSubscription{senders[static_cast<std::size_t>(i)].id, tile_scale * device_scale});
  }
  return subs;
}

}  // namespace vc::platform
