#include "client/vca_client.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/log.h"

namespace vc::client {
namespace {

/// Survival video rate once a platform gives up on quality entirely (video
/// collapses but audio is protected) — the "sudden drop" regime of Fig 17.
constexpr auto kEmergencyRate = DataRate::kbps(60);

/// Fragments per encoded frame, derived from the modeled frame size.
int fragments_for(std::int64_t bytes) {
  return static_cast<int>((bytes + kFragmentBytes - 1) / kFragmentBytes);
}

}  // namespace

VcaClient::VcaClient(net::Host& host, platform::BasePlatform& platform, Config config)
    : host_(host), platform_(platform), config_(config), rng_(config.seed) {
  socket_ = &host_.udp_bind(config_.media_port);
  socket_->on_receive([this](const net::Packet& pkt) { on_packet(pkt); });
  // Per-client ABR wins; otherwise inherit the platform's default. kNone
  // everywhere leaves the client exactly as it was before src/abr existed.
  const abr::AbrConfig& abr_cfg = config_.abr.kind != abr::AbrKind::kNone
                                      ? config_.abr
                                      : platform_.config().default_client_abr;
  if (abr_cfg.kind != abr::AbrKind::kNone) set_abr(abr_cfg);

  const Instruments& instruments = host_.network().instruments();
  tracer_ = instruments.tracer;
  if (MetricsRegistry* registry = instruments.metrics) {
    m_video_encoded_ = &registry->counter("codec.video.frames_encoded");
    m_video_decoded_ = &registry->counter("codec.video.frames_decoded");
    m_video_encoded_bytes_ = &registry->counter("codec.video.encoded_bytes");
    m_audio_encoded_ = &registry->counter("codec.audio.frames_encoded");
    m_skip_ratio_ = &registry->histogram("codec.video.skip_ratio");
    m_qstep_ = &registry->histogram("codec.video.qstep");
    // ABR observability only when an adapter is armed for real at
    // construction: a shadow or disarmed client must leave the registry —
    // and thus any serialized report built from it — byte-identical to a
    // plain client.
    if (abr_ && !config_.abr.shadow) {
      m_abr_decisions_ = &registry->counter("codec.abr.decisions");
      m_abr_switches_ = &registry->counter("codec.abr.tier_switches");
      m_abr_tier_ = &registry->histogram("codec.abr.tier");
    }
  }
}

void VcaClient::set_abr(const abr::AbrConfig& config) {
  config_.abr = config;
  abr_target_ = DataRate::zero();
  abr_ = abr::make_abr(config, platform::tier_ladder(platform_.traits().id));
}

VcaClient::~VcaClient() {
  if (in_meeting_) leave();
  // Cancel outstanding tick events: their lambdas capture `this`.
  auto& loop = host_.network().loop();
  loop.cancel(video_ev_);
  loop.cancel(audio_ev_);
  loop.cancel(feedback_ev_);
  host_.udp_close(config_.media_port);
}

platform::MeetingId VcaClient::create_meeting() {
  if (in_meeting_) throw std::logic_error{"already in a meeting"};
  platform::ClientRef ref{&host_, config_.media_port, config_.device, config_.view,
                          config_.send_video};
  meeting_ = platform_.create_meeting(ref, [this](platform::RouteInfo r) { on_route(r); });
  participant_id_ = 1;
  in_meeting_ = true;
  ++epoch_;
  video_tick();
  audio_tick();
  feedback_tick();
  return meeting_;
}

void VcaClient::join(platform::MeetingId meeting) {
  if (in_meeting_) throw std::logic_error{"already in a meeting"};
  platform::ClientRef ref{&host_, config_.media_port, config_.device, config_.view,
                          config_.send_video};
  participant_id_ = platform_.join(meeting, ref, [this](platform::RouteInfo r) { on_route(r); });
  meeting_ = meeting;
  in_meeting_ = true;
  ++epoch_;
  video_tick();
  audio_tick();
  feedback_tick();
}

void VcaClient::leave() {
  if (!in_meeting_) return;
  platform_.leave(meeting_, participant_id_);
  in_meeting_ = false;
  has_route_ = false;
  ++epoch_;  // cancels pending ticks logically
}

void VcaClient::set_view_mode(platform::ViewMode view) {
  config_.view = view;
  if (in_meeting_) platform_.set_view_mode(meeting_, participant_id_, view);
}

bool VcaClient::rejoin() {
  if (!in_meeting_) return false;
  if (has_route_) return true;
  return platform_.reconnect(meeting_, participant_id_);
}

void VcaClient::on_route(platform::RouteInfo route) {
  const bool had_route = has_route_;
  route_ = route;
  has_route_ = !route.media_endpoint.ip.is_unspecified();
  if (had_route && !has_route_ && abr_) {
    // Route torn down (e.g. relay crash): stale delivery state would poison
    // the first post-reconnect decisions.
    abr_->reset();
    abr_target_ = DataRate::zero();
  }
  if (had_route && !has_route_ && in_meeting_ && on_connection_lost_) on_connection_lost_();
  if (has_route_ && config_.send_video && !encoder_ && !session_factor_drawn_) {
    // Per-session rate draw (the across-session variability of Fig 15).
    const auto& profile = platform::rate_profile(platform_.traits().id);
    session_factor_ =
        profile.session_sigma > 0 ? rng_.lognormal(0.0, profile.session_sigma) : 1.0;
    session_factor_drawn_ = true;
    if (!config_.synthetic_video) {
      encoder_ = std::make_unique<media::VideoEncoder>(
          config_.video_width, config_.video_height,
          media::VideoEncoder::Config{.target_bitrate = DataRate::kbps(600), .fps = config_.fps});
    }
  }
  if (has_route_ && config_.send_audio && !audio_encoder_) {
    audio_encoder_ = std::make_unique<media::AudioEncoder>(media::AudioEncoder::Config{
        .bitrate = platform_.traits().audio_rate, .sample_rate = audio_dev_.sample_rate()});
  }
}

void VcaClient::update_video_target() {
  const int n = std::max(2, platform_.participant_count(meeting_));
  last_known_participants_ = n;
  const auto& profile = platform::rate_profile(platform_.traits().id);
  DataRate base = n == 2 ? profile.video_two_party : profile.video_multi_party;
  if (config_.rate_override > DataRate::zero()) base = config_.rate_override;
  if (config_.motion == platform::MotionClass::kLowMotion) base = base * profile.low_motion_factor;
  session_base_ = base * session_factor_;
  if (emergency_) {
    platform_target_ = kEmergencyRate;
    video_target_ = kEmergencyRate;
  } else {
    const double scaled = static_cast<double>(session_base_.bits_per_second()) * wobble_ * adapt_factor_;
    const auto floor_rate = std::min(profile.min_video_rate, session_base_);
    platform_target_ = DataRate::bps(std::clamp<std::int64_t>(
        static_cast<std::int64_t>(scaled), floor_rate.bits_per_second(),
        session_base_.bits_per_second() * 6 / 5));
    video_target_ = platform_target_;
    // A non-shadow ABR adapter overrides the platform's push, but inside the
    // same session bounds — a client can't exceed what its session/encoder
    // provisioned, and the survival floor still applies.
    if (abr_ && !config_.abr.shadow && abr_target_ > DataRate::zero()) {
      video_target_ = DataRate::bps(std::clamp<std::int64_t>(
          abr_target_.bits_per_second(), floor_rate.bits_per_second(),
          session_base_.bits_per_second() * 6 / 5));
    }
  }
  if (encoder_) encoder_->set_target_bitrate(video_target_ * config_.content_rate_fraction);
  if (on_target_change_ && video_target_ != notified_target_) {
    notified_target_ = video_target_;
    on_target_change_(host_.network().now(), video_target_);
  }
}

void VcaClient::video_tick() {
  if (!in_meeting_) return;
  const std::uint64_t epoch = epoch_;
  video_ev_ = host_.network().loop().schedule_after(seconds_f(1.0 / config_.fps), [this, epoch] {
    if (epoch == epoch_) video_tick();
  });
  if (!has_route_ || !config_.send_video) return;

  std::int64_t frame_bytes = 0;
  std::int64_t frame_seq = 0;
  std::shared_ptr<const media::EncodedFrame> payload;
  if (config_.synthetic_video) {
    update_video_target();
    // Size model: mean target/fps, lognormal wobble, 3x keyframe spike.
    const double mean =
        static_cast<double>(video_target_.bits_per_second()) / config_.fps / 8.0;
    const bool keyframe = synthetic_seq_ % 60 == 0;
    frame_bytes = std::max<std::int64_t>(
        64, static_cast<std::int64_t>(mean * (keyframe ? 3.0 : 1.0) *
                                      rng_.lognormal(0.0, 0.15)));
    frame_seq = synthetic_seq_++;
  } else {
    if (!encoder_) return;
    const auto& latest = video_dev_.latest();
    if (!latest || latest->width() != config_.video_width ||
        latest->height() != config_.video_height) {
      return;  // feeder not started (or misconfigured feed size)
    }
    update_video_target();
    const auto frame = encoder_->encode(*latest);
    if (m_video_encoded_ != nullptr) {
      m_video_encoded_->inc();
      m_video_encoded_bytes_->add(frame->bytes);
      if (frame->total_blocks > 0) {
        m_skip_ratio_->observe(static_cast<double>(frame->skip_blocks) /
                               static_cast<double>(frame->total_blocks));
      }
      m_qstep_->observe(frame->qstep);
    }
    if (tracer_ != nullptr) {
      const SimTime t = host_.network().now();
      tracer_->span("codec.encode", t, t, static_cast<double>(frame->bytes));
    }
    // FEC/redundancy padding up to the wire rate — but only when the encoder
    // is actually spending its quality budget (active content). A dormant
    // scene (blank screen between flashes) stays quiet on the wire.
    const double per_frame_wire =
        static_cast<double>(video_target_.bits_per_second()) / config_.fps / 8.0;
    const double quality_budget = per_frame_wire * config_.content_rate_fraction;
    if (static_cast<double>(frame->bytes) >= 0.5 * quality_budget) {
      frame->wire_bytes =
          std::max<std::int64_t>(frame->bytes, static_cast<std::int64_t>(per_frame_wire));
    }
    frame_bytes = frame->wire_bytes;
    frame_seq = frame->sequence;
    payload = frame;
  }

  const int frags = fragments_for(frame_bytes);
  std::int64_t remaining = frame_bytes;
  for (int i = 0; i < frags; ++i) {
    net::Packet pkt;
    pkt.dst = route_.media_endpoint;
    pkt.l7_len = std::min<std::int64_t>(remaining, kFragmentBytes);
    remaining -= pkt.l7_len;
    pkt.kind = net::StreamKind::kVideo;
    pkt.origin_id = participant_id_;
    pkt.seq = static_cast<std::uint64_t>(frame_seq) * 1024 + static_cast<std::uint64_t>(i);
    pkt.payload = payload;
    send_media_packet(std::move(pkt));
  }
  ++stats_.video_frames_sent;
}

void VcaClient::audio_tick() {
  if (!in_meeting_) return;
  const std::uint64_t epoch = epoch_;
  audio_ev_ = host_.network().loop().schedule_after(millis(20), [this, epoch] {
    if (epoch == epoch_) audio_tick();
  });
  if (!has_route_ || !config_.send_audio || !audio_encoder_) return;
  if (audio_dev_.samples_written() <= audio_cursor_) return;  // no audio fed yet
  const auto n = static_cast<std::size_t>(audio_encoder_->frame_samples());
  const auto samples = audio_dev_.read(audio_cursor_, n);
  audio_cursor_ += n;
  const auto frame = audio_encoder_->encode(samples);
  if (m_audio_encoded_ != nullptr) m_audio_encoded_->inc();
  if (tracer_ != nullptr) {
    tracer_->instant("codec.audio_encode", host_.network().now(),
                     static_cast<double>(frame->bytes));
  }
  net::Packet pkt;
  pkt.dst = route_.media_endpoint;
  pkt.l7_len = std::max<std::int64_t>(frame->bytes, 20);
  pkt.kind = net::StreamKind::kAudio;
  pkt.origin_id = participant_id_;
  pkt.seq = static_cast<std::uint64_t>(frame->sequence);
  pkt.payload = frame;
  send_media_packet(std::move(pkt));
  ++stats_.audio_frames_sent;
}

void VcaClient::send_media_packet(net::Packet pkt) { socket_->send(std::move(pkt)); }

void VcaClient::on_packet(const net::Packet& pkt) {
  switch (pkt.kind) {
    case net::StreamKind::kProbe: {
      // Peers answer probes too (Zoom P2P endpoints are probed like relays).
      net::Packet reply;
      reply.dst = pkt.src;
      reply.l7_len = pkt.l7_len;
      reply.kind = net::StreamKind::kProbeReply;
      reply.seq = pkt.seq;
      socket_->send(std::move(reply));
      ++stats_.probe_replies;
      return;
    }
    case net::StreamKind::kVideo:
      on_video_packet(pkt);
      return;
    case net::StreamKind::kAudio:
      on_audio_packet(pkt);
      return;
    case net::StreamKind::kControl:
      on_control_packet(pkt);
      return;
    default:
      return;
  }
}

void VcaClient::on_video_packet(const net::Packet& pkt) {
  RxStream& rx = video_rx_[pkt.origin_id];
  rx.any_seen = true;
  if (config_.abr_feedback) {
    const SimTime now = host_.network().now();
    if (rx.window_pkts == 0) rx.window_first_arrival = now;
    rx.window_last_arrival = now;
    ++rx.window_pkts;
    rx.window_bytes += pkt.l7_len;
    const double owd_ms = (now - pkt.sent_at).millis();
    if (rx.base_delay_ms < 0.0 || owd_ms < rx.base_delay_ms) rx.base_delay_ms = owd_ms;
    rx.window_delay_sum_ms += owd_ms;
  }
  const std::uint64_t frame_seq = pkt.seq / 1024;
  rx.highest_seq_seen = std::max(rx.highest_seq_seen, frame_seq);
  if (!pkt.payload) return;  // thinned simulcast layer: traffic only
  const auto* encoded = dynamic_cast<const media::EncodedFrame*>(pkt.payload.get());
  if (encoded == nullptr) return;

  auto [it, inserted] = rx.pending.try_emplace(frame_seq);
  auto& pending = it->second;
  if (inserted) {
    pending.frame = std::static_pointer_cast<const media::EncodedFrame>(pkt.payload);
    pending.fragments_needed = fragments_for(encoded->wire_bytes);
    ++rx.window_started;
  }
  ++pending.fragments_got;
  if (pending.fragments_got < pending.fragments_needed) return;

  // Frame complete: decode (in display order; late frames are dropped).
  if (config_.decode_video) {
    if (!rx.decoder) {
      rx.decoder = std::make_unique<media::VideoDecoder>(encoded->width, encoded->height);
    }
    rx.decoder->decode(*pending.frame);
    if (m_video_decoded_ != nullptr) m_video_decoded_->inc();
    if (tracer_ != nullptr) {
      const SimTime t = host_.network().now();
      tracer_->span("codec.decode", t, t, static_cast<double>(encoded->wire_bytes));
    }
  }
  ++stats_.video_frames_completed;
  ++rx.window_completed;
  // Anything older and still pending will never display: count as lost.
  for (auto p = rx.pending.begin(); p != rx.pending.end() && p->first < frame_seq;) {
    ++stats_.video_frames_lost;
    p = rx.pending.erase(p);
  }
  rx.pending.erase(frame_seq);
}

void VcaClient::on_audio_packet(const net::Packet& pkt) {
  if (!pkt.payload) return;
  const auto* encoded = dynamic_cast<const media::EncodedAudioFrame*>(pkt.payload.get());
  if (encoded == nullptr) return;
  ++stats_.audio_frames_received;
  media::AudioDecoder decoder{encoded->frame_samples};
  const auto samples = decoder.decode(*encoded);
  const std::size_t pos = static_cast<std::size_t>(encoded->sequence) *
                          static_cast<std::size_t>(encoded->frame_samples);
  if (audio_mix_.size() < pos + samples.size()) audio_mix_.resize(pos + samples.size(), 0.0F);
  for (std::size_t i = 0; i < samples.size(); ++i) audio_mix_[pos + i] += samples[i];
  audio_mix_len_ = std::max(audio_mix_len_, pos + samples.size());
}

void VcaClient::on_control_packet(const net::Packet& pkt) {
  // Receiver report about our stream: seq==1 → loss, seq==0 → clean.
  const auto& profile = platform::rate_profile(platform_.traits().id);
  if (pkt.seq == 1) {
    adapt_factor_ = std::max(adapt_factor_ * profile.loss_backoff, 0.02);
    ++consecutive_loss_;
    consecutive_clean_ = 0;
    // Sustained starvation → collapse video to survival rate (if the
    // platform adapts at all; Webex's near-unity backoff never gets here
    // because adapt_factor barely moves and floors keep the rate high).
    if (consecutive_loss_ >= 6 && profile.loss_backoff < 0.9) emergency_ = true;
  } else {
    adapt_factor_ = std::min(adapt_factor_ * profile.clean_recovery, 1.0);
    ++consecutive_clean_;
    consecutive_loss_ = 0;
    if (emergency_ && consecutive_clean_ >= 8) emergency_ = false;
  }
  // Receiver-side delivery feedback (if attached) drives the armed adapter.
  if (abr_ && pkt.payload) {
    const auto* fb = dynamic_cast<const AbrFeedback*>(pkt.payload.get());
    if (fb == nullptr) return;
    abr::AbrObservation obs;
    obs.now = host_.network().now();
    obs.window_seconds = fb->window_seconds;
    obs.delivered_bytes = fb->delivered_bytes;
    obs.inter_ack_ms = fb->inter_ack_ms;
    obs.loss_fraction = fb->loss_fraction;
    obs.queue_delay_ms = fb->queue_delay_ms;
    obs.backlog_frames = fb->backlog_frames;
    obs.platform_target = platform_target_ > DataRate::zero() ? platform_target_ : session_base_;
    obs.current_target = video_target_;
    const int before = abr_->last_tier();
    const abr::AbrDecision decision = abr_->select(obs);
    abr_target_ = decision.target;
    ++stats_.abr_decisions;
    const bool switched = before >= 0 && decision.tier != before;
    if (switched) ++stats_.abr_tier_switches;
    if (m_abr_decisions_ != nullptr) {
      m_abr_decisions_->inc();
      if (switched) m_abr_switches_->inc();
      m_abr_tier_->observe(static_cast<double>(decision.tier));
    }
  }
}

void VcaClient::feedback_tick() {
  if (!in_meeting_) return;
  const std::uint64_t epoch = epoch_;
  feedback_ev_ = host_.network().loop().schedule_after(millis(500), [this, epoch] {
    if (epoch == epoch_) feedback_tick();
  });
  if (!has_route_) return;
  // In-session rate drift (Meet's dynamic behavior).
  const auto& profile = platform::rate_profile(platform_.traits().id);
  if (profile.in_session_sigma > 0) {
    wobble_ = std::clamp(wobble_ * rng_.lognormal(0.0, profile.in_session_sigma), 0.6, 1.6);
  }
  for (auto& [origin, rx] : video_rx_) {
    if (rx.window_started == 0) continue;
    const bool loss =
        rx.window_completed < rx.window_started || static_cast<std::int64_t>(rx.pending.size()) > 2;
    net::Packet report;
    report.dst = route_.media_endpoint;
    report.l7_len = 48;
    report.kind = net::StreamKind::kControl;
    report.origin_id = origin;  // the participant this report concerns
    report.seq = loss ? 1 : 0;
    if (config_.abr_feedback) {
      // Delivery feedback rides the report as a sim-side payload; the wire
      // size above is untouched.
      auto fb = std::make_shared<AbrFeedback>();
      fb->delivered_bytes = rx.window_bytes;
      fb->window_seconds = 0.5;
      if (rx.window_pkts > 1) {
        fb->inter_ack_ms = (rx.window_last_arrival - rx.window_first_arrival).millis() /
                           static_cast<double>(rx.window_pkts - 1);
      }
      fb->loss_fraction = std::clamp(
          static_cast<double>(rx.window_started - rx.window_completed) /
              static_cast<double>(rx.window_started),
          0.0, 1.0);
      if (rx.window_pkts > 0 && rx.base_delay_ms >= 0.0) {
        fb->queue_delay_ms =
            std::max(0.0, rx.window_delay_sum_ms / static_cast<double>(rx.window_pkts) -
                              rx.base_delay_ms);
      }
      fb->backlog_frames = static_cast<std::int64_t>(rx.pending.size());
      report.payload = std::move(fb);
      rx.window_bytes = 0;
      rx.window_pkts = 0;
      rx.window_delay_sum_ms = 0.0;
    }
    socket_->send(std::move(report));
    if (loss) ++stats_.loss_reports_sent;
    rx.window_started = 0;
    rx.window_completed = 0;
  }
}

media::Frame VcaClient::render_screen() const {
  media::Frame screen{config_.video_width, config_.video_height, 12};
  if (config_.view == platform::ViewMode::kAudioOnly) return screen;

  // Streams with decodable content, in origin order (host first).
  std::vector<const RxStream*> streams;
  std::vector<std::uint32_t> origins;
  for (const auto& [origin, rx] : video_rx_) {
    if (rx.decoder && rx.decoder->frames_decoded() > 0) origins.push_back(origin);
  }
  std::sort(origins.begin(), origins.end());
  for (auto o : origins) streams.push_back(&video_rx_.at(o));
  if (streams.empty()) return screen;

  if (config_.view == platform::ViewMode::kFullScreen) {
    screen = streams.front()->decoder->current();
  } else {
    // Gallery: 2×2 tiles of up to four streams.
    const int tw = config_.video_width / 2;
    const int th = config_.video_height / 2;
    for (std::size_t i = 0; i < streams.size() && i < 4; ++i) {
      const media::Frame tile = streams[i]->decoder->current().resized(tw, th);
      const int ox = static_cast<int>(i % 2) * tw;
      const int oy = static_cast<int>(i / 2) * th;
      for (int y = 0; y < th; ++y) {
        for (int x = 0; x < tw; ++x) screen.set(ox + x, oy + y, tile.at(x, y));
      }
    }
  }
  // UI widgets (buttons, thumbnails) occlude the screen border even in full
  // screen — the reason the paper pads its feeds (Fig 13).
  const int b = config_.ui_border;
  for (int y = 0; y < screen.height(); ++y) {
    for (int x = 0; x < screen.width(); ++x) {
      if (x < b || y < b || x >= screen.width() - b || y >= screen.height() - b) {
        screen.set(x, y, 80);
      }
    }
  }
  return screen;
}

media::AudioSignal VcaClient::received_audio() const {
  media::AudioSignal out;
  out.sample_rate = audio_dev_.sample_rate();
  out.samples.assign(audio_mix_.begin(),
                     audio_mix_.begin() + static_cast<std::ptrdiff_t>(audio_mix_len_));
  return out;
}

}  // namespace vc::client
