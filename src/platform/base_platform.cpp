#include "platform/base_platform.h"

#include <algorithm>
#include <stdexcept>

namespace vc::platform {

BasePlatform::BasePlatform(net::Network& network, PlatformTraits traits, std::uint64_t seed)
    : traits_(traits),
      allocator_(network, traits.id, traits.media_port, seed) {}

MeetingId BasePlatform::create_meeting(const ClientRef& host,
                                       std::function<void(RouteInfo)> on_route) {
  if (host.host == nullptr || host.media_port == 0) throw std::invalid_argument{"bad host client"};
  Meeting meeting;
  meeting.id = next_meeting_++;
  Member m;
  m.id = meeting.next_participant++;
  m.ref = host;
  m.on_route = std::move(on_route);
  meeting.members.push_back(std::move(m));
  auto [it, _] = meetings_.emplace(meeting.id, std::move(meeting));
  route(it->second);
  refresh_subscriptions(it->second);
  return it->first;
}

ParticipantId BasePlatform::join(MeetingId meeting, const ClientRef& client,
                                 std::function<void(RouteInfo)> on_route) {
  auto it = meetings_.find(meeting);
  if (it == meetings_.end()) throw std::invalid_argument{"no such meeting"};
  if (client.host == nullptr || client.media_port == 0) throw std::invalid_argument{"bad client"};
  Member m;
  m.id = it->second.next_participant++;
  m.ref = client;
  m.on_route = std::move(on_route);
  it->second.members.push_back(std::move(m));
  route(it->second);
  refresh_subscriptions(it->second);
  return it->second.members.back().id;
}

void BasePlatform::leave(MeetingId meeting, ParticipantId participant) {
  auto it = meetings_.find(meeting);
  if (it == meetings_.end()) return;
  for (auto& m : it->second.members) {
    if (m.id == participant && m.relay != nullptr) m.relay->remove_participant(meeting, participant);
  }
  if (placer_ != nullptr) placer_->on_member_left(meeting, participant);
  std::erase_if(it->second.members, [&](const Member& m) { return m.id == participant; });
  if (it->second.members.empty()) {
    end_meeting(meeting);
    return;
  }
  refresh_subscriptions(it->second);
}

void BasePlatform::end_meeting(MeetingId meeting) {
  auto it = meetings_.find(meeting);
  if (it == meetings_.end()) return;
  for (RelayServer* r : it->second.relays) r->remove_meeting(meeting);
  if (placer_ != nullptr) placer_->on_meeting_ended(meeting);
  meetings_.erase(it);
}

int BasePlatform::participant_count(MeetingId meeting) const {
  auto it = meetings_.find(meeting);
  return it == meetings_.end() ? 0 : static_cast<int>(it->second.members.size());
}

void BasePlatform::notify_relay_crashed(RelayServer* relay) {
  if (relay == nullptr) return;
  // The placer sees the crash first: it releases the dead relay's load and
  // precomputes spare-capacity failover targets while it still knows which
  // members the relay was serving (the loop below erases that binding).
  if (placer_ != nullptr) placer_->on_relay_crashed(relay);
  for (auto& [id, meeting] : meetings_) {
    for (auto& m : meeting.members) {
      if (m.relay != relay) continue;
      m.relay = nullptr;
      m.on_route(RouteInfo{});  // unspecified endpoint: connection lost
    }
  }
}

void BasePlatform::home(Meeting& meeting, Member& member, RelayServer* relay) {
  relay->add_participant(meeting.id, member.id, client_endpoint(member));
  member.relay = relay;
  if (std::find(meeting.relays.begin(), meeting.relays.end(), relay) == meeting.relays.end()) {
    meeting.relays.push_back(relay);
  }
  member.on_route(RouteInfo{relay->endpoint(), false});
}

void BasePlatform::route(Meeting& meeting) {
  if (placer_ == nullptr) {
    assign_routes(meeting);
    return;
  }
  for (auto& m : meeting.members) {
    if (m.relay != nullptr) continue;
    RelayServer* relay = placer_->home_for(meeting.id, m.id, m.ref.host->location());
    if (relay != nullptr) home(meeting, m, relay);  // nullptr: no capacity, stays unrouted
  }
}

bool BasePlatform::reconnect(MeetingId meeting, ParticipantId participant) {
  auto it = meetings_.find(meeting);
  if (it == meetings_.end()) return false;
  Meeting& mt = it->second;
  for (auto& m : mt.members) {
    if (m.id != participant) continue;
    if (mt.p2p || m.relay != nullptr) return true;  // still/already routed
    if (placer_ != nullptr) {
      // Fleet failover: reconnect lands on the spare-capacity target the
      // placer picked at crash time, not on the dead relay.
      RelayServer* relay = placer_->rehome(meeting, participant);
      if (relay == nullptr || relay->crashed()) return false;
      home(mt, m, relay);
    } else if (!reattach_member(mt, m)) {
      return false;
    }
    refresh_subscriptions(mt);
    return true;
  }
  return false;  // left the meeting meanwhile
}

bool BasePlatform::reattach_member(Meeting& meeting, Member& member) {
  // Zoom/Webex: the session relay is fixed for the meeting's lifetime, so a
  // rejoin goes back to the same server — and fails until it restarts.
  if (meeting.relays.empty() || meeting.relays.front()->crashed()) return false;
  home(meeting, member, meeting.relays.front());
  return true;
}

void BasePlatform::refresh_subscriptions(Meeting& meeting) {
  if (meeting.p2p) return;  // P2P: the full stream flows directly
  // Senders in join order — the meeting host (the broadcaster in every
  // experiment) is displayed as the main stream.
  for (auto& receiver : meeting.members) {
    if (receiver.relay == nullptr) continue;
    std::vector<SenderInfo> senders;
    for (const auto& m : meeting.members) {
      if (m.id != receiver.id && m.ref.sends_video) {
        senders.push_back(SenderInfo{m.id, m.ref.device});
      }
    }
    receiver.relay->set_subscriptions(
        meeting.id, receiver.id,
        subscriptions(traits_.id, receiver.ref.view, receiver.ref.device, senders));
  }
}

// ----------------------------------------------------------------------- Zoom

ZoomPlatform::ZoomPlatform(net::Network& network, std::uint64_t seed)
    : BasePlatform(network,
                   PlatformTraits{
                       .id = PlatformId::kZoom,
                       .media_port = 8801,
                       .p2p_for_two = true,
                       .supports_gallery = true,
                       .max_tiles = 4,
                       .audio_rate = DataRate::kbps(90),
                   },
                   seed) {}

void ZoomPlatform::assign_routes(Meeting& meeting) {
  if (traits_.p2p_for_two && meeting.members.size() == 2 && meeting.relays.empty()) {
    // Two-party: direct peer-to-peer streaming on the clients' own ports.
    meeting.p2p = true;
    Member& a = meeting.members[0];
    Member& b = meeting.members[1];
    a.on_route(RouteInfo{client_endpoint(b), true});
    b.on_route(RouteInfo{client_endpoint(a), true});
    return;
  }
  if (meeting.members.size() < 2) return;  // host waiting alone: no media path yet
  if (meeting.relays.empty()) {
    // First time we need a relay (3rd participant arrived, or no-P2P build):
    // provision in the host's US region / load-balanced US region.
    meeting.relays.push_back(
        allocator_.zoom_session_relay(meeting.members.front().ref.host->location()));
    meeting.p2p = false;
  }
  RelayServer* relay = meeting.relays.front();
  for (auto& m : meeting.members) {
    if (m.relay != relay) home(meeting, m, relay);
  }
}

// ---------------------------------------------------------------------- Webex

WebexPlatform::WebexPlatform(net::Network& network, std::uint64_t seed, WebexTier tier)
    : BasePlatform(network,
                   PlatformTraits{
                       .id = PlatformId::kWebex,
                       .media_port = 9000,
                       .p2p_for_two = false,
                       .supports_gallery = true,
                       .max_tiles = 4,
                       .audio_rate = DataRate::kbps(45),
                   },
                   seed),
      tier_(tier) {}

void WebexPlatform::assign_routes(Meeting& meeting) {
  if (meeting.relays.empty()) {
    meeting.relays.push_back(
        tier_ == WebexTier::kPaid
            ? allocator_.webex_paid_session_relay(meeting.members.front().ref.host->location())
            : allocator_.webex_session_relay());
  }
  RelayServer* relay = meeting.relays.front();
  for (auto& m : meeting.members) {
    if (m.relay != relay) home(meeting, m, relay);
  }
}

// ----------------------------------------------------------------------- Meet

MeetPlatform::MeetPlatform(net::Network& network, std::uint64_t seed)
    : BasePlatform(network,
                   PlatformTraits{
                       .id = PlatformId::kMeet,
                       .media_port = 19305,
                       .p2p_for_two = false,
                       .supports_gallery = false,
                       .max_tiles = 4,
                       .audio_rate = DataRate::kbps(40),
                   },
                   seed) {}

void MeetPlatform::assign_routes(Meeting& meeting) {
  for (auto& m : meeting.members) {
    if (m.relay == nullptr) home(meeting, m, allocator_.meet_front_end(*m.ref.host));
  }
  mesh(meeting);
}

bool MeetPlatform::reattach_member(Meeting& meeting, Member& member) {
  // Meet re-resolves the client's front-end (stickiness usually lands on the
  // same one, so the rejoin keeps failing until it restarts).
  RelayServer* fe = allocator_.meet_front_end(*member.ref.host);
  if (fe->crashed()) return false;
  home(meeting, member, fe);
  // The crash wiped the front-end's peer links; re-mesh both directions
  // (link_peer is idempotent for links that survived).
  mesh(meeting);
  return true;
}

void MeetPlatform::mesh(Meeting& meeting) {
  // Full mesh among this meeting's front-ends.
  for (RelayServer* a : meeting.relays) {
    for (RelayServer* b : meeting.relays) {
      if (a != b) a->link_peer(meeting.id, b);
    }
  }
}

std::unique_ptr<BasePlatform> make_platform(PlatformId id, net::Network& network,
                                            std::uint64_t seed) {
  switch (id) {
    case PlatformId::kZoom: return std::make_unique<ZoomPlatform>(network, seed);
    case PlatformId::kWebex: return std::make_unique<WebexPlatform>(network, seed);
    case PlatformId::kMeet: return std::make_unique<MeetPlatform>(network, seed);
  }
  throw std::invalid_argument{"unknown platform"};
}

}  // namespace vc::platform
