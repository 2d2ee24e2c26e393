#include "fleet/relay_fleet.h"

#include <algorithm>
#include <stdexcept>

#include "common/geo.h"

namespace vc::fleet {
namespace {

/// Trunk propagation: ~5 us per great-circle km (fiber), floored at 1 ms.
/// Every inter-slot trunk otherwise takes Trunk::Config's rate, burst and
/// queue.
constexpr double kTrunkUsPerKm = 5.0;
constexpr SimDuration kTrunkMinPropagation = millis(1);

}  // namespace

PlacementPolicy parse_policy(const std::string& name) {
  if (name == "rr" || name == "round-robin") return PlacementPolicy::kRoundRobin;
  if (name == "least" || name == "least-loaded") return PlacementPolicy::kLeastLoaded;
  if (name == "locality") return PlacementPolicy::kLocality;
  throw std::invalid_argument{"unknown placement policy: " + name};
}

const char* policy_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin: return "rr";
    case PlacementPolicy::kLeastLoaded: return "least";
    case PlacementPolicy::kLocality: return "locality";
  }
  return "?";
}

RelayFleet::RelayFleet(net::Network& network, platform::BasePlatform& platform, Config config)
    : network_(network), platform_(platform), config_(config) {
  if (config_.size < 1) throw std::invalid_argument{"fleet size must be >= 1"};
  const auto& sites = platform::platform_sites(platform_.traits().id);
  MetricsRegistry* registry = config_.metrics ? network.instruments().metrics : nullptr;
  slots_.resize(static_cast<std::size_t>(config_.size));
  for (int i = 0; i < config_.size; ++i) {
    Slot& s = slots_[static_cast<std::size_t>(i)];
    // Slots cycle through the platform's modeled sites: a fleet larger than
    // the footprint co-locates extra slots (zero-distance trunks between
    // them still pay the configured propagation floor).
    s.site = &sites[static_cast<std::size_t>(i) % sites.size()];
    if (registry == nullptr) continue;
    const std::string base = "fleet.relay" + std::to_string(i);
    s.g_meetings = &registry->gauge(base + ".meetings");
    s.g_participants = &registry->gauge(base + ".participants");
    s.c_trunk_bytes = &registry->counter(base + ".trunk_bytes");
    update_gauges(i);
  }
  platform_.set_placer(this);
}

RelayFleet::~RelayFleet() {
  trunks_.clear();  // deregister trunk egress while the relays are alive
  platform_.set_placer(nullptr);
}

platform::RelayServer* RelayFleet::relay_of_slot(int slot) const {
  return slots_[static_cast<std::size_t>(slot)].relay;
}

Trunk* RelayFleet::trunk(int from_slot, int to_slot) const {
  auto it = trunks_.find({from_slot, to_slot});
  return it == trunks_.end() ? nullptr : it->second.get();
}

platform::RelayServer* RelayFleet::ensure_relay(int slot) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (s.relay == nullptr) s.relay = platform_.allocator().provision_relay(*s.site);
  return s.relay;
}

bool RelayFleet::slot_alive(int slot) const {
  const Slot& s = slots_[static_cast<std::size_t>(slot)];
  // An unprovisioned slot is spare capacity: it can be stood up on demand.
  return s.relay == nullptr || !s.relay->crashed();
}

int RelayFleet::pick_slot(const std::vector<int>& taken, const GeoPoint& member_location) {
  auto usable = [&](int i) {
    return slot_alive(i) && std::find(taken.begin(), taken.end(), i) == taken.end();
  };
  switch (config_.policy) {
    case PlacementPolicy::kRoundRobin: {
      for (int step = 0; step < config_.size; ++step) {
        const int i = (rr_cursor_ + step) % config_.size;
        if (!usable(i)) continue;
        rr_cursor_ = (i + 1) % config_.size;
        return i;
      }
      return -1;
    }
    case PlacementPolicy::kLeastLoaded: {
      int best = -1;
      for (int i = 0; i < config_.size; ++i) {
        if (!usable(i)) continue;
        if (best < 0 || slots_[static_cast<std::size_t>(i)].participants <
                            slots_[static_cast<std::size_t>(best)].participants) {
          best = i;  // strict < keeps the lowest index on ties
        }
      }
      return best;
    }
    case PlacementPolicy::kLocality: {
      int best = -1;
      double best_km = 0.0;
      for (int i = 0; i < config_.size; ++i) {
        if (!usable(i)) continue;
        const double km =
            great_circle_km(member_location, slots_[static_cast<std::size_t>(i)].site->location);
        if (best < 0 || km < best_km) {  // strict <: lowest index on ties
          best = i;
          best_km = km;
        }
      }
      return best;
    }
  }
  return -1;
}

void RelayFleet::ensure_trunk_pair(int a, int b) {
  const double km = great_circle_km(slots_[static_cast<std::size_t>(a)].site->location,
                                    slots_[static_cast<std::size_t>(b)].site->location);
  SimDuration prop = millis_f(km * kTrunkUsPerKm / 1000.0);
  if (prop < kTrunkMinPropagation) prop = kTrunkMinPropagation;
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    if (trunks_.count({from, to}) != 0) continue;
    const Trunk::Config tc{.propagation = prop};
    // Slots carry instruments exactly when the fleet reports metrics.
    MetricsRegistry::Counter* origin_bytes = slots_[static_cast<std::size_t>(from)].c_trunk_bytes;
    std::string prefix;
    if (origin_bytes != nullptr) {
      prefix = "fleet.trunk" + std::to_string(from) + "_" + std::to_string(to);
    }
    auto trunk =
        std::make_unique<Trunk>(network_, *ensure_relay(from), *ensure_relay(to), tc, prefix);
    trunk->set_origin_bytes_counter(origin_bytes);
    trunks_.emplace(std::pair{from, to}, std::move(trunk));
  }
}

void RelayFleet::open_shard(platform::MeetingId meeting, Homing& h, int slot) {
  platform::RelayServer* fresh = ensure_relay(slot);
  for (const int s : h.shards) {
    if (!slot_alive(s) || slots_[static_cast<std::size_t>(s)].relay == nullptr) continue;
    platform::RelayServer* existing = slots_[static_cast<std::size_t>(s)].relay;
    existing->link_peer(meeting, fresh);
    fresh->link_peer(meeting, existing);
    ensure_trunk_pair(s, slot);
  }
  h.shards.push_back(slot);
  h.shard_members.emplace(slot, 0);
  ++slots_[static_cast<std::size_t>(slot)].meetings;
  update_gauges(slot);
}

platform::RelayServer* RelayFleet::home_for(platform::MeetingId meeting,
                                            platform::ParticipantId member,
                                            const GeoPoint& member_location) {
  Homing& h = homings_[meeting];
  // Idempotent for an already-homed member: assign_routes re-runs over every
  // unrouted member (e.g. when someone joins during an outage), and a member
  // whose slot is down must wait for the reconnect/rehome path, not be
  // silently double-counted onto a new slot.
  if (auto it = h.member_slot.find(member); it != h.member_slot.end()) {
    return slot_alive(it->second) ? ensure_relay(it->second) : nullptr;
  }
  int slot;
  if (h.shards.empty()) {
    slot = pick_slot({}, member_location);
    if (slot < 0) return nullptr;  // whole fleet down
    open_shard(meeting, h, slot);
  } else {
    slot = h.shards.back();  // join-order fill of the newest shard
    const bool full = config_.overflow_shard_size > 0 &&
                      h.shard_members[slot] >= config_.overflow_shard_size;
    if (full || !slot_alive(slot)) {
      const int next = pick_slot(h.shards, member_location);
      if (next >= 0) {
        open_shard(meeting, h, next);
        slot = next;
      } else {
        // Every slot already hosts a shard (or is down): overflow into the
        // least-populated surviving shard — the soft limit yields to
        // capacity.
        slot = -1;
        for (const int s : h.shards) {
          if (!slot_alive(s)) continue;
          if (slot < 0 || h.shard_members[s] < h.shard_members[slot]) slot = s;
        }
        if (slot < 0) return nullptr;
      }
    }
  }
  h.member_slot[member] = slot;
  ++h.shard_members[slot];
  ++slots_[static_cast<std::size_t>(slot)].participants;
  update_gauges(slot);
  return ensure_relay(slot);
}

void RelayFleet::on_member_left(platform::MeetingId meeting, platform::ParticipantId member) {
  auto hit = homings_.find(meeting);
  if (hit == homings_.end()) return;
  Homing& h = hit->second;
  auto mit = h.member_slot.find(member);
  if (mit == h.member_slot.end()) return;
  const int slot = mit->second;
  h.member_slot.erase(mit);
  --h.shard_members[slot];
  --slots_[static_cast<std::size_t>(slot)].participants;
  update_gauges(slot);
}

void RelayFleet::on_meeting_ended(platform::MeetingId meeting) {
  auto hit = homings_.find(meeting);
  if (hit == homings_.end()) return;
  Homing& h = hit->second;
  for (const int slot : h.shards) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    --s.meetings;
    s.participants -= h.shard_members[slot];  // members that never left()
    update_gauges(slot);
  }
  homings_.erase(hit);
}

void RelayFleet::on_relay_crashed(platform::RelayServer* relay) {
  int dead = -1;
  for (int i = 0; i < config_.size; ++i) {
    if (slots_[static_cast<std::size_t>(i)].relay == relay) dead = i;
  }
  if (dead < 0) return;  // not a fleet relay
  // Re-home every affected meeting's members in meeting-id order (then
  // member-id order within a meeting) — the deterministic failover sweep.
  for (auto& [meeting, h] : homings_) {
    if (std::find(h.shards.begin(), h.shards.end(), dead) == h.shards.end()) continue;
    for (auto& [member, slot] : h.member_slot) {
      if (slot != dead) continue;
      // Locality failover measures from the dead site: the nearest
      // surviving datacenter inherits its neighborhood.
      const int target =
          pick_slot({dead}, slots_[static_cast<std::size_t>(dead)].site->location);
      if (target < 0) continue;  // no survivor: wait for restart (fleet of 1)
      if (std::find(h.shards.begin(), h.shards.end(), target) == h.shards.end()) {
        open_shard(meeting, h, target);
      }
      slot = target;
      --h.shard_members[dead];
      ++h.shard_members[target];
      --slots_[static_cast<std::size_t>(dead)].participants;
      ++slots_[static_cast<std::size_t>(target)].participants;
      update_gauges(target);
    }
    // Retire the dead shard once nothing is homed on it any more; survivors
    // drop their peer links to it (its own session state died in crash()).
    if (h.shard_members[dead] == 0) {
      std::erase(h.shards, dead);
      h.shard_members.erase(dead);
      --slots_[static_cast<std::size_t>(dead)].meetings;
      for (const int s : h.shards) {
        platform::RelayServer* survivor = slots_[static_cast<std::size_t>(s)].relay;
        if (survivor != nullptr) survivor->unlink_peer(meeting, relay);
      }
    }
  }
  update_gauges(dead);
}

platform::RelayServer* RelayFleet::rehome(platform::MeetingId meeting,
                                          platform::ParticipantId member) {
  auto hit = homings_.find(meeting);
  if (hit == homings_.end()) return nullptr;
  auto mit = hit->second.member_slot.find(member);
  if (mit == hit->second.member_slot.end()) return nullptr;
  if (!slot_alive(mit->second)) return nullptr;  // target down too: back off
  return ensure_relay(mit->second);
}

void RelayFleet::update_gauges(int slot) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (s.g_meetings != nullptr) s.g_meetings->set(static_cast<double>(s.meetings));
  if (s.g_participants != nullptr) s.g_participants->set(static_cast<double>(s.participants));
}

}  // namespace vc::fleet
