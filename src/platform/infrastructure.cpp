#include "platform/infrastructure.h"

#include <limits>
#include <stdexcept>

namespace vc::platform {
namespace {

/// The site closest to `p` by great-circle distance (the first on ties).
const Site& nearest(const std::vector<Site>& sites, const GeoPoint& p) {
  const Site* best = &sites.front();
  double best_km = std::numeric_limits<double>::max();
  for (const auto& s : sites) {
    const double km = great_circle_km(p, s.location);
    if (km < best_km) {
      best_km = km;
      best = &s;
    }
  }
  return *best;
}

}  // namespace

const std::vector<Site>& platform_sites(PlatformId id) {
  // Approximate datacenter coordinates. Zoom/Webex free tier: US only
  // (Section 4.2.2); Meet: cross-continental presence including Europe.
  static const std::vector<Site> kZoomSites = {
      {"zoom-us-east", {38.95, -77.45}},     // N. Virginia
      {"zoom-us-central", {32.78, -96.80}},  // Dallas
      {"zoom-us-west", {37.35, -121.95}},    // San Jose
  };
  static const std::vector<Site> kWebexSites = {
      {"webex-us-east", {38.95, -77.45}},    // N. Virginia (everything)
  };
  static const std::vector<Site> kMeetSites = {
      {"meet-us-east", {33.10, -80.00}},     // S. Carolina
      {"meet-us-central", {41.22, -95.86}},  // Iowa
      {"meet-us-west", {45.60, -121.18}},    // Oregon
      {"meet-eu-west", {53.33, -6.25}},      // Dublin
      {"meet-eu-belgium", {50.45, 4.45}},    // St. Ghislain
      {"meet-eu-london", {51.51, -0.13}},    // London
      {"meet-eu-frankfurt", {50.11, 8.68}},  // Frankfurt
      {"meet-eu-zurich", {47.38, 8.54}},     // Zurich
      {"meet-eu-paris", {48.86, 2.35}},      // Paris
  };
  switch (id) {
    case PlatformId::kZoom: return kZoomSites;
    case PlatformId::kWebex: return kWebexSites;
    case PlatformId::kMeet: return kMeetSites;
  }
  throw std::invalid_argument{"unknown platform"};
}

const std::vector<Site>& webex_paid_sites() {
  static const std::vector<Site> kSites = {
      {"webex-us-east", {38.95, -77.45}},     // N. Virginia
      {"webex-us-west", {37.35, -121.95}},    // San Jose
      {"webex-eu-ams", {52.37, 4.90}},        // Amsterdam
      {"webex-eu-lon", {51.51, -0.13}},       // London
      {"webex-eu-fra", {50.11, 8.68}},        // Frankfurt
  };
  return kSites;
}

RelayAllocator::RelayAllocator(net::Network& network, PlatformId platform,
                               std::uint16_t media_port, std::uint64_t seed)
    : network_(network), platform_(platform), media_port_(media_port), rng_(seed) {}

RelayServer* RelayAllocator::new_relay(const Site& site) {
  // Media-plane processing latency per platform, calibrated to the paper's
  // lag floors (Finding 1): Webex's pipeline is the leanest (~10 ms lag
  // floor), Zoom sits near 20 ms, and Meet's front-ends are slower and far
  // more variable — smaller per-site capacity, more load variation — which
  // is how Meet ends up with the worst lag despite the lowest RTTs.
  RelayServer::ForwardingDelay delay;
  switch (platform_) {
    case PlatformId::kZoom:
      delay = {millis_f(7.0), 2.0};
      break;
    case PlatformId::kWebex:
      delay = {millis_f(3.0), 1.0};
      break;
    case PlatformId::kMeet:
      delay = {millis_f(9.0), 6.0};
      break;
  }
  auto relay = std::make_unique<RelayServer>(network_,
                                             site.name + "-r" + std::to_string(relay_counter_++),
                                             site.location, media_port_, delay);
  RelayServer* ptr = relay.get();
  relays_.push_back(std::move(relay));
  return ptr;
}

RelayServer* RelayAllocator::zoom_session_relay(const GeoPoint& host_location) {
  const auto& sites = platform_sites(PlatformId::kZoom);
  // "In the US" by longitude: the paper's US/EU vantage split.
  const bool host_in_us = host_location.lon_deg < -30.0;
  const Site& site = host_in_us ? nearest(sites, host_location) : sites[rng_.index(sites.size())];
  return new_relay(site);  // fresh IP every session: 20/20 distinct endpoints
}

RelayServer* RelayAllocator::webex_session_relay() {
  // ~19.5 distinct endpoints over 20 sessions: occasional IP reuse.
  if (last_webex_relay_ != nullptr && rng_.chance(0.025)) return last_webex_relay_;
  last_webex_relay_ = new_relay(platform_sites(PlatformId::kWebex).front());
  return last_webex_relay_;
}

RelayServer* RelayAllocator::webex_paid_session_relay(const GeoPoint& host_location) {
  return new_relay(nearest(webex_paid_sites(), host_location));
}

RelayServer* RelayAllocator::meet_front_end(const net::Host& client) {
  auto it = meet_front_ends_.find(client.ip());
  if (it == meet_front_ends_.end()) {
    const Site& site = nearest(platform_sites(platform_), client.location());
    it = meet_front_ends_.emplace(client.ip(), std::make_pair(new_relay(site), new_relay(site)))
             .first;
  }
  // Primary with p=0.92: E[distinct endpoints over 20 sessions] ≈ 1.8.
  return rng_.chance(0.92) ? it->second.first : it->second.second;
}

}  // namespace vc::platform
