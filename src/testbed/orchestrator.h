// Coordinated session orchestration (Section 3.1 "coordinated client
// deployments"): brings a meeting up across a host and participants via
// their scripted controllers, fires the media/measurement phase once
// everyone is in, and tears the session down after the configured duration.
// A join timeout guards against sessions whose roster never completes (e.g.
// under heavy loss/shaping): instead of deadlocking the simulation, the
// session fails and reports who was missing.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "client/controller.h"
#include "client/vca_client.h"
#include "common/metrics.h"

namespace vc::testbed {

/// How a session ended, delivered to Plan::on_done.
struct SessionOutcome {
  /// True when everyone joined and the media phase ran to completion; false
  /// when the join timeout fired first.
  bool ok = true;
  /// Indices into Plan::participants that had not joined by the timeout
  /// (empty on success).
  std::vector<std::size_t> missing_participants;
};

class SessionOrchestrator {
 public:
  struct Plan {
    client::VcaClient* host = nullptr;
    std::vector<client::VcaClient*> participants;
    /// Gap between consecutive participant join scripts.
    SimDuration join_stagger = millis(400);
    /// Media/measurement phase length once everyone has joined.
    SimDuration media_duration = seconds(30);
    /// Fail the session if the roster is still incomplete this long after
    /// start(). Zero disables the timeout (the pre-timeout behaviour: a
    /// stuck join hangs the session forever).
    SimDuration join_timeout = seconds(120);
    /// Workflow timings for every controller; defaults to the platform's.
    std::optional<client::ClientController::Script> script;
    /// Fired when the roster is complete (start feeders/recorders here).
    std::function<void()> on_all_joined;
    /// Fired exactly once, when the session completes or times out.
    std::function<void(const SessionOutcome&)> on_done;
    /// When set, arms automatic reconnection (relay-crash recovery) on
    /// every controller. Each controller's jitter RNG is seeded from this
    /// seed and its creation index (host first, then participants in order),
    /// so backoff schedules are deterministic and decorrelated.
    std::optional<std::uint64_t> reconnect_seed;
  };

  /// On an instrumented network the orchestrator counts
  /// `session.completed` / `session.join_timeouts`, and the controllers it
  /// makes record their workflow metrics and reconnection instants.
  explicit SessionOrchestrator(Plan plan);
  SessionOrchestrator(const SessionOrchestrator&) = delete;
  SessionOrchestrator& operator=(const SessionOrchestrator&) = delete;

  /// Schedules the whole session; the caller then runs the event loop.
  void start();

  bool finished() const { return finished_; }
  bool timed_out() const { return timed_out_; }
  platform::MeetingId meeting() const { return meeting_; }

 private:
  net::EventLoop& loop();
  std::unique_ptr<client::ClientController> make_controller(client::VcaClient& client);
  void on_meeting_created(platform::MeetingId id);
  void on_participant_joined(std::size_t index);
  void begin_media_phase();
  void on_join_timeout();

  Plan plan_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<client::ClientController> host_controller_;
  std::vector<std::unique_ptr<client::ClientController>> controllers_;
  platform::MeetingId meeting_ = 0;
  std::vector<bool> joined_;
  std::size_t joined_count_ = 0;
  std::size_t controllers_made_ = 0;
  bool media_started_ = false;
  bool finished_ = false;
  bool timed_out_ = false;
  net::EventId timeout_event_ = 0;
  bool timeout_scheduled_ = false;
};

}  // namespace vc::testbed
