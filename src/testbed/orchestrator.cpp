#include "testbed/orchestrator.h"

#include <stdexcept>

namespace vc::testbed {

SessionOrchestrator::SessionOrchestrator(Plan plan) : plan_(std::move(plan)) {
  if (plan_.host == nullptr) throw std::invalid_argument{"session needs a host client"};
  metrics_ = plan_.host->host().network().instruments().metrics;
  joined_.assign(plan_.participants.size(), false);
}

net::EventLoop& SessionOrchestrator::loop() { return plan_.host->host().network().loop(); }

std::unique_ptr<client::ClientController> SessionOrchestrator::make_controller(
    client::VcaClient& client) {
  auto controller = plan_.script
                        ? std::make_unique<client::ClientController>(client, *plan_.script)
                        : std::make_unique<client::ClientController>(client);
  if (plan_.reconnect_seed) {
    // Creation order (host, then participants in index order) is fixed, so
    // the derived jitter seed names the same controller in every run.
    controller->enable_reconnect(*plan_.reconnect_seed +
                                 0x9E3779B97F4A7C15ULL * (controllers_made_ + 1));
  }
  ++controllers_made_;
  return controller;
}

void SessionOrchestrator::start() {
  host_controller_ = make_controller(*plan_.host);
  if (plan_.join_timeout > SimDuration::zero()) {
    timeout_scheduled_ = true;
    timeout_event_ = loop().schedule_after(plan_.join_timeout, [this] { on_join_timeout(); });
  }
  host_controller_->start_host([this](platform::MeetingId id) { on_meeting_created(id); });
}

void SessionOrchestrator::on_meeting_created(platform::MeetingId id) {
  meeting_ = id;
  if (plan_.participants.empty()) {
    begin_media_phase();
    return;
  }
  SimDuration delay = SimDuration::zero();
  for (std::size_t i = 0; i < plan_.participants.size(); ++i) {
    auto controller = make_controller(*plan_.participants[i]);
    client::ClientController* ctl = controller.get();
    controllers_.push_back(std::move(controller));
    loop().schedule_after(delay, [this, ctl, i] {
      if (timed_out_) return;
      ctl->start_join(meeting_, [this, i] { on_participant_joined(i); });
    });
    delay = delay + plan_.join_stagger;
  }
}

void SessionOrchestrator::on_participant_joined(std::size_t index) {
  if (timed_out_ || joined_[index]) return;
  joined_[index] = true;
  ++joined_count_;
  if (joined_count_ == plan_.participants.size()) begin_media_phase();
}

void SessionOrchestrator::begin_media_phase() {
  if (timeout_scheduled_) {
    loop().cancel(timeout_event_);
    timeout_scheduled_ = false;
  }
  media_started_ = true;
  if (plan_.on_all_joined) plan_.on_all_joined();
  loop().schedule_after(plan_.media_duration, [this] {
    for (auto* p : plan_.participants) p->leave();
    plan_.host->leave();
    finished_ = true;
    if (metrics_) metrics_->counter("session.completed").inc();
    if (plan_.on_done) plan_.on_done(SessionOutcome{});
  });
}

void SessionOrchestrator::on_join_timeout() {
  if (media_started_ || finished_) return;
  timeout_scheduled_ = false;
  timed_out_ = true;
  finished_ = true;

  SessionOutcome outcome;
  outcome.ok = false;
  for (std::size_t i = 0; i < joined_.size(); ++i) {
    if (!joined_[i]) outcome.missing_participants.push_back(i);
  }

  // Stop the scripted workflows that are still mid-flight, then take every
  // client that did make it (including the host) out of the meeting so the
  // event loop can drain.
  host_controller_->abort();
  for (auto& ctl : controllers_) ctl->abort();
  for (auto* p : plan_.participants) p->leave();
  plan_.host->leave();

  if (metrics_) metrics_->counter("session.join_timeouts").inc();
  if (plan_.on_done) plan_.on_done(outcome);
}

}  // namespace vc::testbed
