#include "client/controller.h"

#include <algorithm>

namespace vc::client {

ClientController::Script default_script(platform::PlatformId id) {
  switch (id) {
    case platform::PlatformId::kZoom:
      // Native Linux client: fast launch, app login.
      return {.launch = millis(2500), .login = millis(1200), .join = millis(1500)};
    case platform::PlatformId::kWebex:
      // Web client in a browser tab.
      return {.launch = millis(4000), .login = millis(2000), .join = millis(2500)};
    case platform::PlatformId::kMeet:
      return {.launch = millis(3500), .login = millis(1500), .join = millis(2000)};
  }
  return {};
}

ClientController::ClientController(VcaClient& client, Script script)
    : client_(client),
      script_(script),
      metrics_(client.host().network().instruments().metrics),
      tracer_(client.host().network().instruments().tracer) {}

ClientController::ClientController(VcaClient& client)
    : ClientController(client, default_script(client.platform().traits().id)) {}

net::EventLoop& ClientController::loop() { return client_.host().network().loop(); }

void ClientController::abort() {
  if (state_ == State::kInMeeting || state_ == State::kLeft) return;
  state_ = State::kAborted;
}

void ClientController::start_host(std::function<void(platform::MeetingId)> on_created) {
  state_ = State::kLaunching;
  loop().schedule_after(script_.launch, [this, on_created = std::move(on_created)]() mutable {
    if (state_ == State::kAborted) return;
    state_ = State::kLoggingIn;
    loop().schedule_after(script_.login, [this, on_created = std::move(on_created)]() mutable {
      if (state_ == State::kAborted) return;
      state_ = State::kCreating;
      loop().schedule_after(script_.join, [this, on_created = std::move(on_created)] {
        if (state_ == State::kAborted) return;
        const auto id = client_.create_meeting();
        state_ = State::kInMeeting;
        if (metrics_) metrics_->counter("client.meetings_created").inc();
        if (on_created) on_created(id);
      });
    });
  });
}

void ClientController::start_join(platform::MeetingId meeting, std::function<void()> on_joined) {
  state_ = State::kLaunching;
  const SimTime started = loop().now();
  loop().schedule_after(script_.launch,
                        [this, meeting, started, on_joined = std::move(on_joined)]() mutable {
    if (state_ == State::kAborted) return;
    state_ = State::kLoggingIn;
    loop().schedule_after(script_.login,
                          [this, meeting, started, on_joined = std::move(on_joined)]() mutable {
      if (state_ == State::kAborted) return;
      state_ = State::kJoining;
      loop().schedule_after(script_.join, [this, meeting, started, on_joined = std::move(on_joined)] {
        if (state_ == State::kAborted) return;
        client_.join(meeting);
        state_ = State::kInMeeting;
        if (metrics_) {
          metrics_->counter("client.joins").inc();
          metrics_->histogram("client.join_latency_ms").observe((loop().now() - started).millis());
        }
        if (on_joined) on_joined();
      });
    });
  });
}

void ClientController::enable_reconnect(ReconnectPolicy policy, std::uint64_t seed) {
  reconnect_ = policy;
  reconnect_enabled_ = true;
  reconnect_rng_ = Rng{seed};
  client_.set_on_connection_lost([this] { on_connection_lost(); });
}

void ClientController::on_connection_lost() {
  if (!reconnect_enabled_ || state_ != State::kInMeeting) return;
  state_ = State::kReconnecting;
  lost_at_ = loop().now();
  attempt_ = 0;
  ++reconnect_epoch_;
  if (metrics_) metrics_->counter("client.disconnects").inc();
  if (tracer_) tracer_->instant("client.connection_lost", loop().now(), 0.0);
  schedule_reconnect_attempt();
}

void ClientController::schedule_reconnect_attempt() {
  // backoff_k = min(initial · multiplier^k, max), then ± jitter from the
  // controller-owned RNG — the network stream must never see these draws,
  // or a fault plan would perturb packet timing beyond the fault itself.
  double ms = reconnect_.initial_backoff.millis();
  for (int i = 0; i < attempt_; ++i) ms = std::min(ms * reconnect_.multiplier,
                                                   reconnect_.max_backoff.millis());
  if (reconnect_.jitter > 0) {
    ms *= 1.0 + reconnect_.jitter * (2.0 * reconnect_rng_.next_double() - 1.0);
  }
  const std::uint64_t epoch = reconnect_epoch_;
  loop().schedule_after(millis_f(ms), [this, epoch] {
    if (epoch != reconnect_epoch_ || state_ != State::kReconnecting) return;
    if (!client_.in_meeting()) {
      // Torn down externally (e.g. orchestrator session end) mid-backoff.
      state_ = State::kLeft;
      return;
    }
    ++attempt_;
    if (metrics_) metrics_->counter("client.reconnect_attempts").inc();
    if (client_.rejoin()) {
      state_ = State::kInMeeting;
      const double waited = (loop().now() - lost_at_).millis();
      if (metrics_) {
        metrics_->counter("client.reconnects").inc();
        metrics_->histogram("client.time_to_reconnect_ms").observe(waited);
      }
      if (tracer_) tracer_->instant("client.reconnected", loop().now(), waited);
      return;
    }
    if (attempt_ >= reconnect_.max_attempts) {
      state_ = State::kAborted;  // gave up: the session is lost
      if (metrics_) metrics_->counter("client.reconnect_giveups").inc();
      if (tracer_) {
        tracer_->instant("client.reconnect_giveup", loop().now(),
                         static_cast<double>(attempt_));
      }
      return;
    }
    schedule_reconnect_attempt();
  });
}

void ClientController::change_layout_after(SimDuration delay, platform::ViewMode view) {
  loop().schedule_after(delay, [this, view] {
    if (state_ == State::kInMeeting) client_.set_view_mode(view);
  });
}

void ClientController::leave_after(SimDuration delay) {
  loop().schedule_after(delay, [this] {
    if (state_ == State::kInMeeting || state_ == State::kReconnecting) {
      ++reconnect_epoch_;  // cancels any pending backoff attempt
      client_.leave();
      state_ = State::kLeft;
    }
  });
}

}  // namespace vc::client
