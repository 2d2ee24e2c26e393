// The relay federation fleet: a fixed pool of relays, a deterministic
// meeting load balancer, overflow sharding for huge meetings, and
// spare-capacity failover — the provider-side half the paper could only
// observe from outside (Section 4.2's geo-distributed relay steering).
//
// A RelayFleet implements platform::MeetingPlacer, replacing the measured
// per-platform steering policies with an explicit balancer over `size`
// relay slots. Slots are provisioned lazily through the platform's
// RelayAllocator in first-touch order — under the rr and least-loaded
// policies that is ascending slot order, so the fault subsystem addresses
// fleet slot i as allocator relay_at(i) — and cycle through the platform's
// modeled sites, giving multi-slot fleets a real geographic spread for the
// locality policy and for trunk propagation delays.
//
//   * Placement — one of three deterministic, RNG-free policies picks the
//     slot when a meeting first needs a home: round-robin (rotating cursor),
//     least-loaded (fewest homed participants, lowest slot index breaking
//     ties), locality (nearest site to the joining member, lowest index
//     breaking ties).
//   * Overflow sharding — when a meeting's current shard reaches
//     overflow_shard_size members, the balancer opens a new shard on
//     another slot and trunks it (both directions) to every existing shard,
//     so one huge meeting's fan-out load spreads across the fleet while
//     media still reaches every member through the relay mesh.
//   * Failover — on a relay crash the fleet re-homes that slot's members
//     onto surviving slots at crash time (policy-picked, load transferred
//     eagerly); reconnecting clients then land on the precomputed target
//     via MeetingPlacer::rehome. With no survivor (fleet of 1) members keep
//     their slot and back off until the relay restarts — the PR 5 behavior.
//
// Determinism: placement, overflow and failover consult only fleet-internal
// state iterated in deterministic (slot-index / meeting-id) order and draw
// no RNG, so same seed ⇒ byte-identical reports at any thread count × shard
// count × fleet size.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/tracer.h"
#include "fleet/trunk.h"
#include "platform/base_platform.h"

namespace vc::fleet {

enum class PlacementPolicy { kRoundRobin, kLeastLoaded, kLocality };

/// Parses "rr" / "least" / "locality" (benchmark flag spelling).
PlacementPolicy parse_policy(const std::string& name);
const char* policy_name(PlacementPolicy policy);

class RelayFleet : public platform::MeetingPlacer {
 public:
  struct Config {
    int size = 1;
    PlacementPolicy policy = PlacementPolicy::kRoundRobin;
    /// Members per meeting shard before the balancer opens an overflow
    /// shard on another slot; 0 disables sharding (unbounded shard).
    /// Failover may exceed the limit: re-homed members join surviving
    /// shards regardless of fullness (capacity beats the soft split).
    int overflow_shard_size = 0;
    /// Trunk provisioning shared by every inter-slot link.
    DataRate trunk_rate = DataRate::mbps(500);
    std::int64_t trunk_burst_bytes = 64'000;
    std::size_t trunk_queue_limit_packets = 4096;
    /// Propagation: ~5 us per great-circle km (fiber), floored at 1 ms.
    double trunk_us_per_km = 5.0;
    SimDuration trunk_min_propagation = millis(1);
    /// On an instrumented network, register per-slot load gauges
    /// `fleet.relay<i>.meetings` / `.relay<i>.participants` plus a
    /// `.relay<i>.trunk_bytes` counter (wire bytes this slot pushed onto
    /// trunks) for every slot up front, so reports have stable columns at any
    /// load, and report each trunk under `fleet.trunk<i>_<j>` (shaper
    /// counters + delivered_packets). Part of the determinism contract.
    /// Trunks are traced whenever the network is.
    bool metrics = true;
  };

  /// Installs itself as `platform`'s placer; the destructor uninstalls.
  /// Construct before any meeting is created.
  RelayFleet(net::Network& network, platform::BasePlatform& platform, Config config);
  ~RelayFleet() override;

  // MeetingPlacer:
  platform::RelayServer* home_for(platform::MeetingId meeting, platform::ParticipantId member,
                                  const GeoPoint& member_location) override;
  void on_member_left(platform::MeetingId meeting, platform::ParticipantId member) override;
  void on_meeting_ended(platform::MeetingId meeting) override;
  void on_relay_crashed(platform::RelayServer* relay) override;
  platform::RelayServer* rehome(platform::MeetingId meeting,
                                platform::ParticipantId member) override;

  int size() const { return config_.size; }
  /// Slot's relay, nullptr while never provisioned (no meeting touched it).
  platform::RelayServer* relay_of_slot(int slot) const;
  int slot_meetings(int slot) const { return slots_[static_cast<std::size_t>(slot)].meetings; }
  int slot_participants(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].participants;
  }
  /// Directed trunk i→j, nullptr while the pair was never linked.
  Trunk* trunk(int from_slot, int to_slot) const;
  std::size_t trunk_count() const { return trunks_.size(); }

 private:
  struct Slot {
    platform::RelayServer* relay = nullptr;  // lazily provisioned
    const platform::Site* site = nullptr;
    int meetings = 0;      // shards homed here (one meeting can count once)
    int participants = 0;  // members homed here across all meetings
    MetricsRegistry::Gauge* g_meetings = nullptr;
    MetricsRegistry::Gauge* g_participants = nullptr;
    MetricsRegistry::Counter* c_trunk_bytes = nullptr;
  };
  /// Where one meeting lives on the fleet.
  struct Homing {
    /// Slots hosting a shard of this meeting, in open order; the newest
    /// shard is the one join-order assignment fills.
    std::vector<int> shards;
    /// member → slot. Updated eagerly on failover, so rehome() is a lookup.
    std::map<platform::ParticipantId, int> member_slot;
    /// slot → members currently homed there (parallel to member_slot).
    std::map<int, int> shard_members;
  };

  platform::RelayServer* ensure_relay(int slot);
  bool slot_alive(int slot) const;
  /// Policy pick among alive slots, excluding those already in `taken`
  /// (pass empty for a first shard). Returns -1 when nothing qualifies.
  int pick_slot(const std::vector<int>& taken, const GeoPoint& member_location);
  /// Opens a shard of `meeting` on `slot`: bumps load, links the new shard's
  /// relay to every existing shard (peer links both ways + trunk pair).
  void open_shard(platform::MeetingId meeting, Homing& h, int slot);
  void ensure_trunk_pair(int a, int b);
  void update_gauges(int slot);

  net::Network& network_;
  platform::BasePlatform& platform_;
  Config config_;
  std::vector<Slot> slots_;
  /// meeting-id ordered: crash failover iterates this deterministically.
  std::map<platform::MeetingId, Homing> homings_;
  /// Directed trunks, keyed (from_slot, to_slot); std::map for
  /// deterministic teardown and inspection order.
  std::map<std::pair<int, int>, std::unique_ptr<Trunk>> trunks_;
  int rr_cursor_ = 0;
};

}  // namespace vc::fleet
