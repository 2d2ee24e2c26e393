// Deterministic, seeded fault injection: a FaultPlan is a scripted timeline
// of impairment events — bandwidth steps/ramps, full link outages, burst-loss
// installation, relay crashes — compiled onto the existing net::EventLoop
// when the plan is armed. The paper only measures static impairments (fixed
// last-mile caps, Figs 17–18); this subsystem is what lets vcbench ask the
// follow-on question of how each platform *reacts* to mid-call degradation.
//
// Determinism contract (same as the rest of the tree): arming and firing a
// plan draws NO randomness — every action is a pure function of the scripted
// timeline, so a faulted run is byte-identical at any thread count × fleet
// size. The only new randomness a fault can trigger lives
// in the recovering clients' backoff jitter, which draws from controller-
// owned RNGs (see client::ClientController::enable_reconnect), never from
// the network stream. An armed-but-empty plan schedules nothing at all, so
// its hot-path cost is structurally zero (enforced by bench_fault_recovery
// --gate in CI).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "common/units.h"

namespace vc::net {
class Network;
}
namespace vc::platform {
class BasePlatform;
}

namespace vc::fault {

/// Most steps one link ramp may take. Arming schedules steps + 1 events, and
/// the step rate (to - from) * i / steps stays inside int64 for every rate
/// the JSON reader accepts (|rate| <= 2^53 bps, so 2^54 * 2^8 < 2^63).
constexpr int kMaxRampSteps = 256;

/// One scripted impairment. `at` is relative to the plan's arm origin, so
/// the same plan can be replayed against any phase of a run (benchmarks arm
/// at media start, making "outage 5 s into the call" seed-independent).
struct FaultEvent {
  enum class Kind {
    /// Step the target host's ingress shaper to `rate`.
    kLinkRate,
    /// Linear ramp from `rate` to `rate_end` over `duration` in `steps`
    /// equal steps (compiled into kLinkRate-equivalent actions at arm time).
    kLinkRamp,
    /// Take the target host's link fully down for `duration` (every packet
    /// submitted to the shaper is dropped), then bring it back up.
    kLinkOutage,
    /// Install a Gilbert–Elliott burst-loss model: on the target host's
    /// ingress when `host` is set, else on the core network (replacing the
    /// i.i.d. loss model).
    kBurstLoss,
    /// Crash the platform's relay #`relay_index` (creation order) for
    /// `duration`, then restart it. Clients routed through it learn of the
    /// crash `detection` later (a timeout, not an oracle) — media they sent
    /// in that window is counted as lost at the relay — and must then
    /// reconnect. Even if the relay restarts before detection, clients
    /// still re-join: the restarted process lost its forwarding state.
    kRelayCrash,
  };

  Kind kind = Kind::kLinkRate;
  SimDuration at{};
  std::string host;         // kLink* target; optional for kBurstLoss
  DataRate rate{};          // kLinkRate value / kLinkRamp start
  DataRate rate_end{};      // kLinkRamp end
  SimDuration duration{};   // outage length / relay downtime / ramp span
  int steps = 8;            // kLinkRamp resolution, 1..kMaxRampSteps
  double loss_average = 0.0;  // kBurstLoss stationary loss rate
  double mean_burst = 4.0;    // kBurstLoss mean bad-state sojourn (packets)
  std::size_t relay_index = 0;  // kRelayCrash target
  /// kRelayCrash: how long clients take to notice the dead server.
  SimDuration detection = millis(250);
};

class FaultPlan {
 public:
  /// What a plan acts on when armed. `platform` is only needed for
  /// kRelayCrash (relay lookup + crashed-route notification); the plan
  /// reports into the network's instruments.
  struct Bindings {
    net::Network* network = nullptr;
    platform::BasePlatform* platform = nullptr;
  };

  // ---- builders (fluent; events fire in timeline order regardless of the
  // order they were added in, because each compiles to its own schedule_at).
  FaultPlan& link_rate(SimDuration at, std::string host, DataRate rate);
  /// `steps` outside 1..kMaxRampSteps throws std::invalid_argument.
  FaultPlan& link_ramp(SimDuration at, std::string host, DataRate from, DataRate to,
                       SimDuration over, int steps = 8);
  FaultPlan& link_outage(SimDuration at, std::string host, SimDuration duration);
  FaultPlan& burst_loss(SimDuration at, double average, double mean_burst,
                        std::string host = {});
  /// `relay_index` addresses the platform allocator's relays in creation
  /// order. Fleet relays (fleet::RelayFleet) provision through the same
  /// allocator, so a crash plan targets fleet slots too: under the rr and
  /// least-loaded policies slots first provision in ascending slot order
  /// (deterministic tie-breaking), so relay_crash(at, 0, d) crashes fleet
  /// slot 0, whose meetings the balancer fails over onto survivors.
  FaultPlan& relay_crash(SimDuration at, std::size_t relay_index, SimDuration down_for,
                         SimDuration detection = millis(250));

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Compiles the timeline onto the network's event loop, relative to
  /// `origin`. Each event becomes one scheduled action; an empty plan
  /// schedules nothing, which is why an installed-but-empty plan costs
  /// nothing on the hot path. Link targets are resolved by host name at arm
  /// time (throws std::invalid_argument for an unknown host); a target with
  /// no ingress shaper gets an unlimited one installed so rate/outage
  /// actions always have a knob to turn. Fires `fault.*` counters and
  /// tracer instants as events execute.
  void arm(const Bindings& bindings, SimTime origin) const;

  /// Plan exchange format for the CLI walkthroughs:
  /// {"fault_plan": [{"kind": "...", "at_ms": ..., ...}, ...]}.
  std::string to_json() const;
  /// Throws std::runtime_error on malformed JSON or an unknown kind.
  static FaultPlan from_json(const std::string& text);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace vc::fault
