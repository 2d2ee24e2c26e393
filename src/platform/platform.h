// Platform abstraction for the three videoconferencing systems under test.
//
// Everything the paper could only observe from outside — relay placement,
// endpoint churn, designated media ports, rate policy, view-dependent
// subscriptions, bandwidth adaptation — is encoded here as explicit policy,
// so the measurement harness can rediscover it blindly from traffic, the way
// the paper did.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/units.h"
#include "net/host.h"

namespace vc::platform {

enum class PlatformId : std::uint8_t { kZoom = 0, kWebex = 1, kMeet = 2 };

std::string_view platform_name(PlatformId id);

/// The lowercase inverse of platform_name ("zoom", "webex", "meet"), the
/// spelling every command line takes; nullopt for any other name.
std::optional<PlatformId> platform_from_name(std::string_view name);

/// Receiver device class; platforms differ in whether they adapt to it
/// (Section 5: only Webex lowers its rate for the low-end J3).
enum class DeviceClass : std::uint8_t { kCloudVm = 0, kMobileHighEnd = 1, kMobileLowEnd = 2 };

/// Client UI view (Section 5): full-screen speaker, gallery (≤4 tiles), or
/// screen off / audio-only.
enum class ViewMode : std::uint8_t { kFullScreen = 0, kGallery = 1, kAudioOnly = 2 };

using MeetingId = std::uint64_t;
using ParticipantId = std::uint32_t;

/// What a client registers with the platform when joining.
struct ClientRef {
  net::Host* host = nullptr;
  /// The client's local media port (where relayed streams should be sent).
  std::uint16_t media_port = 0;
  DeviceClass device = DeviceClass::kCloudVm;
  ViewMode view = ViewMode::kFullScreen;
  /// True if this participant sends video (camera/feed on).
  bool sends_video = true;
};

/// Routing handed to a client at join time (and on re-routing events, e.g.
/// Zoom's P2P ↔ relay switch when the 3rd participant arrives).
struct RouteInfo {
  net::Endpoint media_endpoint;
  bool p2p = false;
};

/// Per-(receiver, origin) forwarding decision made by the platform's
/// subscription policy: `scale` multiplies the origin's stream rate
/// (1 = full stream, 0.25 = low simulcast layer, 0 = not forwarded).
struct StreamSubscription {
  ParticipantId origin = 0;
  double scale = 1.0;
};

/// Constants that identify a platform on the wire.
struct PlatformTraits {
  PlatformId id = PlatformId::kZoom;
  /// Designated media port of service endpoints (Section 4.2): UDP/8801
  /// Zoom, UDP/9000 Webex, UDP/19305 Meet.
  std::uint16_t media_port = 0;
  /// Zoom activates direct peer-to-peer streaming for two-party calls.
  bool p2p_for_two = false;
  /// Gallery view supported natively (Meet has none; Section 5).
  bool supports_gallery = true;
  /// Maximum concurrently displayed video tiles (all three show ≤4).
  int max_tiles = 4;
  /// Audio stream rate (Section 4.4: Zoom 90, Webex 45, Meet 40 Kbps).
  DataRate audio_rate;
};

}  // namespace vc::platform
