// Shared meeting/membership bookkeeping for the three platforms; concrete
// subclasses implement only relay selection and routing (assign_routes).
#pragma once

#include <functional>
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
  /// member stays unrouted. Called once per member, in join order.
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

class BasePlatform : public VcaPlatform {
 public:
  BasePlatform(net::Network& network, PlatformTraits traits, std::uint64_t seed);
  /// Full-config construction: seeds the allocator and, when
  /// config.fan_out_shards > 0, provisions the shard pool every allocated
  /// relay shares (sized per config.shard_workers; 0 resolved workers means
  /// relays run their shards inline — staged path, no threads).
  BasePlatform(net::Network& network, PlatformTraits traits, const PlatformConfig& config);

  const PlatformTraits& traits() const override { return traits_; }

  MeetingId create_meeting(const ClientRef& host,
                           std::function<void(RouteInfo)> on_route) override;
  ParticipantId join(MeetingId meeting, const ClientRef& client,
                     std::function<void(RouteInfo)> on_route) override;
  void leave(MeetingId meeting, ParticipantId participant) override;
  void end_meeting(MeetingId meeting) override;
  void set_view_mode(MeetingId meeting, ParticipantId participant, ViewMode view) override;
  int participant_count(MeetingId meeting) const override;

  RelayAllocator& allocator() { return allocator_; }

  /// The construction-time config (clients read default_client_abr from it).
  const PlatformConfig& config() const { return config_; }

  /// Control-plane notification that `relay` crashed: every member routed
  /// through it loses its relay binding and gets RouteInfo{} pushed (the
  /// unspecified endpoint — clients stop sending and report a lost
  /// connection). Meeting relay lists stay intact, so a reconnect attempted
  /// while the relay is still down fails and the client keeps backing off.
  void notify_relay_crashed(RelayServer* relay);

  /// Client-driven re-join after a lost route: re-registers the member with
  /// its serving relay/front-end, pushes a fresh route and re-establishes
  /// subscriptions. Returns true once routed (or if already routed); false
  /// while the infrastructure is still down — callers back off and retry.
  bool reconnect(MeetingId meeting, ParticipantId participant);

  /// Installs `placer` (borrowed; must outlive the platform, nullptr to
  /// uninstall) as the routing authority for meetings assigned from now on.
  /// Install before any meeting is created: mixing native-steered and
  /// placer-steered meetings in one platform instance is unsupported.
  void set_placer(MeetingPlacer* placer) { placer_ = placer; }
  MeetingPlacer* placer() { return placer_; }

  /// The pool relays shard their fan-out on; nullptr when fan-out is serial
  /// or the shards run inline (exposed so tests can assert the resolution).
  ShardPool* shard_pool() { return shard_pool_.get(); }

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

  /// Platform-specific: picks relays/front-ends and pushes RouteInfo to
  /// every member whose routing changed (or to all of them).
  virtual void assign_routes(Meeting& meeting) = 0;

  /// Platform-specific re-attachment of one disconnected member. The default
  /// (Zoom/Webex: single session relay) re-registers with the meeting's
  /// relay; Meet re-resolves the client's front-end and re-meshes the peer
  /// links the crash wiped. Returns false while the target is still crashed.
  virtual bool reattach_member(Meeting& meeting, Member& member);

  /// Placer-driven routing: homes every unrouted member on the relay the
  /// installed MeetingPlacer picks. Subclass assign_routes overrides
  /// delegate here (and return) whenever a placer is installed.
  void fleet_assign(Meeting& meeting);

  /// Recomputes every member's subscriptions from current membership and
  /// view modes and pushes them to the serving relays.
  void refresh_subscriptions(Meeting& meeting);

  net::Endpoint client_endpoint(const Member& m) const {
    return net::Endpoint{m.ref.host->ip(), m.ref.media_port};
  }

  net::Network& network_;
  PlatformTraits traits_;
  PlatformConfig config_;
  /// Declared before allocator_: the allocator hands the pool pointer to
  /// every relay it creates, and relays must never outlive the pool.
  std::unique_ptr<ShardPool> shard_pool_;
  RelayAllocator allocator_;
  MeetingPlacer* placer_ = nullptr;
  std::unordered_map<MeetingId, Meeting> meetings_;
  MeetingId next_meeting_ = 1;
};

/// Zoom: one US relay per session near the host's US region (load-balanced
/// across US regions for non-US hosts); direct P2P for two-party calls.
class ZoomPlatform final : public BasePlatform {
 public:
  explicit ZoomPlatform(net::Network& network, std::uint64_t seed = 11);
  ZoomPlatform(net::Network& network, const PlatformConfig& config);

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
  WebexPlatform(net::Network& network, const PlatformConfig& config,
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
  MeetPlatform(net::Network& network, const PlatformConfig& config);

 private:
  void assign_routes(Meeting& meeting) override;
  bool reattach_member(Meeting& meeting, Member& member) override;
};

/// Factory: the platform under test by id.
std::unique_ptr<BasePlatform> make_platform(PlatformId id, net::Network& network,
                                            std::uint64_t seed = 7);
std::unique_ptr<BasePlatform> make_platform(PlatformId id, net::Network& network,
                                            const PlatformConfig& config);

}  // namespace vc::platform
