// Shared meeting/membership bookkeeping for the three platforms. Concrete
// subclasses implement only their native relay pick (assign_routes, and
// Meet's reattach_member); BasePlatform::home is the one place a member
// gets a relay, whether the platform or an installed placer picked it.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "platform/infrastructure.h"
#include "platform/platform.h"
#include "platform/rate_policy.h"

namespace vc::platform {

/// Pluggable meeting-placement policy (implemented by fleet::RelayFleet).
/// When installed on a platform it REPLACES the platform's native relay
/// steering for every meeting: each member is homed on the relay the placer
/// picks (Zoom's two-party P2P short-circuit included — a fleet deployment
/// terminates all media on managed infrastructure). Implementations must be
/// deterministic and draw no RNG: placement decisions are part of the
/// byte-identity contract.
class MeetingPlacer {
 public:
  virtual ~MeetingPlacer() = default;

  /// Relay to home (meeting, member) on; nullptr means "no capacity" and the
  /// member stays unrouted. Asked for every unrouted member, in join order,
  /// each time the roster grows.
  virtual RelayServer* home_for(MeetingId meeting, ParticipantId member,
                                const GeoPoint& member_location) = 0;

  /// Load bookkeeping: a member left / the meeting ended.
  virtual void on_member_left(MeetingId meeting, ParticipantId member) = 0;
  virtual void on_meeting_ended(MeetingId meeting) = 0;

  /// A relay crashed: release its load and precompute failover targets for
  /// every member it was serving. Called before members are detached.
  virtual void on_relay_crashed(RelayServer* relay) = 0;

  /// Failover target for a disconnected member (spare-capacity re-homing
  /// decided at crash time). nullptr while nothing can serve it — the
  /// client keeps backing off, exactly like the native rejoin path.
  virtual RelayServer* rehome(MeetingId meeting, ParticipantId member) = 0;
};

class BasePlatform {
 public:
  BasePlatform(net::Network& network, PlatformTraits traits, std::uint64_t seed);
  virtual ~BasePlatform() = default;

  const PlatformTraits& traits() const { return traits_; }

  /// Creates a meeting hosted by `host`; the host is participant 1.
  /// `on_route` is invoked immediately with initial routing and again on any
  /// re-route.
  MeetingId create_meeting(const ClientRef& host, std::function<void(RouteInfo)> on_route);

  /// Joins an existing meeting. Returns the new participant's id.
  ParticipantId join(MeetingId meeting, const ClientRef& client,
                     std::function<void(RouteInfo)> on_route);

  void leave(MeetingId meeting, ParticipantId participant);
  void end_meeting(MeetingId meeting);

  /// Current roster size (what the client's UI shows — used by clients for
  /// N-dependent rate policy). 0 for unknown meetings.
  int participant_count(MeetingId meeting) const;

  RelayAllocator& allocator() { return allocator_; }

  /// Control-plane notification that `relay` crashed: every member routed
  /// through it loses its relay binding and gets RouteInfo{} pushed (the
  /// unspecified endpoint — clients stop sending and report a lost
  /// connection). Meeting relay lists stay intact, so a reconnect attempted
  /// while the relay is still down fails and the client keeps backing off.
  void notify_relay_crashed(RelayServer* relay);

  /// Client-driven re-join after a lost route: homes the member again — on
  /// the installed placer's failover target, or natively through
  /// reattach_member — and re-establishes subscriptions. Returns true once
  /// routed (or if already routed); false while the infrastructure is still
  /// down — callers back off and retry.
  bool reconnect(MeetingId meeting, ParticipantId participant);

  /// Installs `placer` (borrowed; must outlive the platform, nullptr to
  /// uninstall) as the routing authority for meetings assigned from now on.
  /// Install before any meeting is created: mixing native-steered and
  /// placer-steered meetings in one platform instance is unsupported.
  void set_placer(MeetingPlacer* placer) { placer_ = placer; }

 protected:
  struct Member {
    ParticipantId id = 0;
    ClientRef ref;
    std::function<void(RouteInfo)> on_route;
    RelayServer* relay = nullptr;
  };
  struct Meeting {
    MeetingId id = 0;
    std::vector<Member> members;
    std::vector<RelayServer*> relays;
    bool p2p = false;
    ParticipantId next_participant = 1;
  };

  /// Platform-specific native steering: picks relays/front-ends, homes
  /// every member whose relay changed, and pushes P2P routes (Zoom). Not
  /// called while a placer is installed.
  virtual void assign_routes(Meeting& meeting) = 0;

  /// Native re-attachment of one disconnected member. The default
  /// (Zoom/Webex: single session relay) homes it on the meeting's relay;
  /// Meet re-resolves the client's front-end and re-meshes the peer links
  /// the crash wiped. Returns false while the target is still crashed.
  virtual bool reattach_member(Meeting& meeting, Member& member);

  /// The one homing step: registers `member` on `relay`, records the relay
  /// on the member and (once) on the meeting, and pushes the route.
  void home(Meeting& meeting, Member& member, RelayServer* relay);

  net::Endpoint client_endpoint(const Member& m) const {
    return net::Endpoint{m.ref.host->ip(), m.ref.media_port};
  }

  PlatformTraits traits_;
  RelayAllocator allocator_;

 private:
  /// Routes a meeting after its roster grew: homes every unrouted member on
  /// the relay the installed placer picks, or lets assign_routes steer.
  void route(Meeting& meeting);

  /// Recomputes every member's subscriptions from current membership and
  /// view modes and pushes them to the serving relays.
  void refresh_subscriptions(Meeting& meeting);

  MeetingPlacer* placer_ = nullptr;
  std::unordered_map<MeetingId, Meeting> meetings_;
  MeetingId next_meeting_ = 1;
};

/// Zoom: one US relay per session near the host's US region (load-balanced
/// across US regions for non-US hosts); direct P2P for two-party calls.
class ZoomPlatform final : public BasePlatform {
 public:
  explicit ZoomPlatform(net::Network& network, std::uint64_t seed = 11);

 private:
  void assign_routes(Meeting& meeting) override;
};

/// Webex subscription tier. The paper's findings hold for the free tier;
/// with a paid subscription, Webex provisions relays near the meeting
/// (Section 6: RTTs < 20 ms from US-west and Europe).
enum class WebexTier { kFree, kPaid };

/// Webex: one relay per session — always US-east on the free tier, nearest
/// site on the paid tier.
class WebexPlatform final : public BasePlatform {
 public:
  explicit WebexPlatform(net::Network& network, std::uint64_t seed = 22,
                         WebexTier tier = WebexTier::kFree);

  WebexTier tier() const { return tier_; }

 private:
  void assign_routes(Meeting& meeting) override;
  WebexTier tier_;
};

/// Meet: per-client nearby front-ends, meetings relayed across front-ends.
class MeetPlatform final : public BasePlatform {
 public:
  explicit MeetPlatform(net::Network& network, std::uint64_t seed = 33);

 private:
  void assign_routes(Meeting& meeting) override;
  bool reattach_member(Meeting& meeting, Member& member) override;
  /// Links every pair of the meeting's front-ends, both ways.
  void mesh(Meeting& meeting);
};

/// Factory: the platform under test by id.
std::unique_ptr<BasePlatform> make_platform(PlatformId id, net::Network& network,
                                            std::uint64_t seed = 7);

}  // namespace vc::platform
