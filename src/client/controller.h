// Client controller (Fig 1): replays a platform-specific UI workflow script
// — launch, login, meeting create/join — by scheduling the corresponding
// client actions, as xdotool/adb scripts do in the real testbed, and drives
// reconnection after a lost route. The layout is the client config's view,
// fixed at join; leaving is the session orchestrator's call
// (VcaClient::leave).
#pragma once

#include <functional>

#include "client/vca_client.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/tracer.h"

namespace vc::client {

class ClientController {
 public:
  /// Scripted step durations; defaults vary slightly by platform (web
  /// clients log in slower than the native Zoom client).
  struct Script {
    SimDuration launch = seconds(2);
    SimDuration login = seconds(1);
    SimDuration join = seconds(1);
  };

  enum class State { kIdle, kLaunching, kLoggingIn, kCreating, kJoining, kInMeeting,
                     kReconnecting, kLeft, kAborted };

  /// On an instrumented network, records workflow events:
  /// `client.meetings_created` / `client.joins` counters and a
  /// `client.join_latency_ms` histogram (start_join call to in-meeting, i.e.
  /// the scripted launch+login+join path). On a traced one, records the
  /// reconnection lifecycle instants `client.connection_lost`,
  /// `client.reconnected` (value = ms from loss to recovery) and
  /// `client.reconnect_giveup`.
  ClientController(VcaClient& client, Script script);
  /// Uses per-platform default timings.
  explicit ClientController(VcaClient& client);

  State state() const { return state_; }

  /// Arms automatic reconnection: when the in-meeting client loses its route
  /// the controller enters kReconnecting and drives an exponential-backoff
  /// loop: attempt k waits min(initial·multiplier^k, max) ± jitter
  /// (controller.cpp's constants), re-joining through the platform until it
  /// succeeds or the attempt budget is exhausted.
  /// Jitter draws come from a controller-owned Rng seeded here — the network
  /// RNG stream never sees them, which keeps faulted runs deterministic.
  /// Emits `client.disconnects` / `client.reconnect_attempts` /
  /// `client.reconnects` / `client.reconnect_giveups` counters and a
  /// `client.time_to_reconnect_ms` histogram on an instrumented network.
  void enable_reconnect(std::uint64_t seed);

  /// Abandons the scripted workflow: any still-pending step becomes a no-op
  /// and its callback never fires (used when an orchestrator gives up on a
  /// session). In-meeting clients are left untouched.
  void abort();

  /// Launch → login → create meeting; invokes `on_created` with the id.
  void start_host(std::function<void(platform::MeetingId)> on_created);
  /// Launch → login → join; invokes `on_joined` when in-meeting.
  void start_join(platform::MeetingId meeting, std::function<void()> on_joined);

 private:
  net::EventLoop& loop();
  void on_connection_lost();
  void schedule_reconnect_attempt();

  VcaClient& client_;
  Script script_;
  State state_ = State::kIdle;
  MetricsRegistry* metrics_ = nullptr;
  Tracer* tracer_ = nullptr;

  bool reconnect_enabled_ = false;
  Rng reconnect_rng_{0};
  SimTime lost_at_{};
  int attempt_ = 0;
};

/// Platform-default workflow timings.
ClientController::Script default_script(platform::PlatformId id);

}  // namespace vc::client
