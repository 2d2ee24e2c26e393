// Datacenter footprints and endpoint-allocation (churn) policies.
//
// What the paper inferred from RTTs and endpoint counts (Section 4.2):
//  * Zoom: US-based sites (east/central/west). US-hosted sessions get a
//    relay in the host's region; non-US sessions are load-balanced across
//    the US regions (the trimodal RTT bands of Figs 10a/11a). A fresh relay
//    IP almost every session (~20 distinct endpoints over 20 sessions).
//  * Webex (free tier): everything relays via US-east, always — US-west
//    pairs detour through the east coast (Fig 9b). Fresh IP per session
//    (~19.5 / 20).
//  * Meet: globally distributed front-ends; each client talks to a nearby
//    front-end and sticks to one or two across sessions (~1.8 / 20).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/geo.h"
#include "common/rng.h"
#include "net/network.h"
#include "platform/platform.h"
#include "platform/relay.h"

namespace vc::platform {

struct Site {
  std::string name;
  GeoPoint location;
};

/// The modeled datacenter sites of a platform (free tier).
const std::vector<Site>& platform_sites(PlatformId id);

/// Webex's broader footprint available to paid subscriptions (Section 6:
/// paid-tier clients in US-west and Europe stream from geographically
/// close-by Webex servers with RTTs under 20 ms).
const std::vector<Site>& webex_paid_sites();

/// Allocates relay servers according to each platform's observed policy.
/// Owns every relay it creates (relays persist across sessions, like real
/// infrastructure).
class RelayAllocator {
 public:
  RelayAllocator(net::Network& network, PlatformId platform, std::uint16_t media_port,
                 std::uint64_t seed);

  /// Session relay for Zoom: near the host if the host is in the US,
  /// otherwise a uniformly chosen US region (regional load balancing).
  /// Returns a fresh relay (new IP) every call.
  RelayServer* zoom_session_relay(const GeoPoint& host_location);

  /// Session relay for Webex: always US-east; occasionally (p≈2.5%) reuses
  /// the previous relay, otherwise a fresh IP.
  RelayServer* webex_session_relay();

  /// Paid-tier Webex: a fresh relay at the site nearest the host.
  RelayServer* webex_paid_session_relay(const GeoPoint& host_location);

  /// Front-end for a Meet client: the site nearest the client; the client
  /// has a primary and a secondary front-end there and picks the primary
  /// with high probability each session (≈1.8 distinct over 20 sessions).
  RelayServer* meet_front_end(const net::Host& client);

  /// Explicitly provision a relay at `site`, bypassing the per-platform
  /// steering policies above. Fleet deployments (src/fleet) use this to
  /// stand up a fixed pool of relays up front; the relay is owned here and
  /// addressable via relay_at() like any policy-allocated one. Draws no RNG.
  RelayServer* provision_relay(const Site& site) { return new_relay(site); }

  std::size_t relays_created() const { return relays_.size(); }

  /// Relay by creation index (0-based), or nullptr when out of range. The
  /// fault subsystem addresses crash targets this way: creation order is
  /// deterministic, so "relay 0" names the same server at every thread
  /// count.
  RelayServer* relay_at(std::size_t index) {
    return index < relays_.size() ? relays_[index].get() : nullptr;
  }

 private:
  RelayServer* new_relay(const Site& site);

  net::Network& network_;
  PlatformId platform_;
  std::uint16_t media_port_;
  Rng rng_;
  std::vector<std::unique_ptr<RelayServer>> relays_;
  RelayServer* last_webex_relay_ = nullptr;
  /// Meet stickiness: client IP → {primary, secondary} front-ends.
  std::unordered_map<net::IpAddr, std::pair<RelayServer*, RelayServer*>> meet_front_ends_;
  int relay_counter_ = 0;
};

}  // namespace vc::platform
