// The emulated videoconferencing client (Fig 1's "videoconferencing client"
// box): reads the loopback devices, encodes and streams media to its service
// endpoint (or P2P peer), receives/decodes remote streams, renders the UI
// view, answers probes, and runs the receiver-feedback loop that drives each
// platform's bandwidth adaptation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "abr/abr.h"
#include "client/loopback.h"
#include "media/audio_codec.h"
#include "media/video_codec.h"
#include "net/network.h"
#include "platform/base_platform.h"
#include "platform/rate_policy.h"

namespace vc::client {

/// Media fragments at most this many L7 bytes (RTP-over-UDP sized).
inline constexpr std::int64_t kFragmentBytes = 1150;

/// Receiver-side delivery feedback riding the periodic 500 ms control report
/// as a sim-side payload — the report's wire size (l7_len) is unchanged, the
/// real report's 48 bytes would carry the same few numbers. The sending
/// client turns one of these into an abr::AbrObservation.
struct AbrFeedback final : public net::PacketPayload {
  /// Video payload bytes of this origin delivered in the window.
  std::int64_t delivered_bytes = 0;
  double window_seconds = 0.5;
  /// Mean spacing between delivered video packets in the window (ms).
  double inter_ack_ms = 0.0;
  /// Fraction of frames seen in the window that never completed.
  double loss_fraction = 0.0;
  /// Mean one-way delay in the window minus the session-minimum baseline
  /// (ms): the self-inflicted/bottleneck queuing signal.
  double queue_delay_ms = 0.0;
  /// Frames seen but still incomplete at report time.
  std::int64_t backlog_frames = 0;
};

class VcaClient {
 public:
  struct Config {
    platform::DeviceClass device = platform::DeviceClass::kCloudVm;
    platform::ViewMode view = platform::ViewMode::kFullScreen;
    bool send_video = true;
    bool send_audio = true;
    /// Reconstruct received video pixels (needed for QoE recording). Lag
    /// experiments disable it: traffic timing is all they measure.
    bool decode_video = true;
    /// Model encoded-frame sizes from the rate target instead of running
    /// the pixel codec (for resource/traffic experiments where nobody
    /// scores pixels, e.g. the mobile scenarios). Such frames carry no
    /// decodable payload.
    bool synthetic_video = false;
    platform::MotionClass motion = platform::MotionClass::kHighMotion;
    /// Encoded frame dimensions (the padded feed size); multiples of 8.
    int video_width = 368;
    int video_height = 288;
    double fps = 15.0;
    std::uint16_t media_port = 47000;
    /// UI widgets occlude this outer border of the rendered screen, even in
    /// full-screen mode (Section 4.3 / Fig 13). Keep < feed padding.
    int ui_border = 16;
    /// Fraction of the video wire rate carrying codec payload; the rest is
    /// FEC/redundancy padding (real VCA streams are near-CBR at the policy
    /// rate). Padding is only added to frames of active content — dormant
    /// (blank-screen) frames stay tiny, preserving the quiescent periods the
    /// paper's lag method depends on.
    double content_rate_fraction = 0.3;
    /// Nonzero: bypass the platform's N-dependent rate policy and encode at
    /// this base rate (mobile cameras; simulcast high layers for mobile
    /// receivers). Adaptation/wobble still apply on top.
    DataRate rate_override = DataRate::zero();
    /// Client-side ABR (src/abr): kNone (default) falls back to the
    /// platform's PlatformConfig::default_client_abr; if that is also kNone
    /// the client follows the platform-pushed rate exactly as before —
    /// byte-identical to a build without this field.
    abr::AbrConfig abr{};
    /// Attach AbrFeedback accounting/payloads to the control reports this
    /// client *sends as a receiver*. Costless on the wire (l7_len unchanged)
    /// but off by default so plain runs do no extra bookkeeping.
    bool abr_feedback = false;
    std::uint64_t seed = 99;
  };

  struct Stats {
    std::int64_t video_frames_sent = 0;
    std::int64_t video_frames_completed = 0;  // fully received & decodable
    std::int64_t video_frames_lost = 0;       // seen but never completed
    std::int64_t audio_frames_sent = 0;
    std::int64_t audio_frames_received = 0;
    std::int64_t loss_reports_sent = 0;
    std::int64_t probe_replies = 0;
    std::int64_t abr_decisions = 0;      // select() calls on this sender
    std::int64_t abr_tier_switches = 0;  // decisions that changed the tier
  };

  /// On an instrumented network, mirrors codec activity into
  /// `codec.video.frames_encoded`, `codec.video.frames_decoded`,
  /// `codec.video.encoded_bytes` and `codec.audio.frames_encoded` counters
  /// plus `codec.video.skip_ratio` (per-frame SKIP-block fraction) and
  /// `codec.video.qstep` histograms. Only real pixel encodes count —
  /// synthetic_video runs no codec. On a traced network, video encodes
  /// become `codec.encode` spans (value = encoded bytes), completed-frame
  /// decodes `codec.decode` spans (value = wire bytes), audio encodes
  /// `codec.audio_encode` instants (value = encoded bytes).
  VcaClient(net::Host& host, platform::BasePlatform& platform, Config config);
  ~VcaClient();
  VcaClient(const VcaClient&) = delete;
  VcaClient& operator=(const VcaClient&) = delete;

  VideoLoopbackDevice& video_device() { return video_dev_; }
  AudioLoopbackDevice& audio_device() { return audio_dev_; }
  net::Host& host() { return host_; }
  platform::BasePlatform& platform() { return platform_; }
  const Config& config() const { return config_; }
  const Stats& stats() const { return stats_; }

  /// Creates a meeting on the platform with this client as host.
  platform::MeetingId create_meeting();
  /// Joins an existing meeting.
  void join(platform::MeetingId meeting);
  void leave();
  bool in_meeting() const { return in_meeting_; }
  platform::ParticipantId participant_id() const { return participant_id_; }
  platform::MeetingId meeting_id() const { return meeting_; }

  /// True while the client holds a usable media route. A relay crash pushes
  /// RouteInfo{} (unspecified endpoint), which drops this to false — media
  /// ticks keep running but send nothing until the route is restored.
  bool has_route() const { return has_route_; }

  /// Fires when an in-meeting client's route is torn down (route held →
  /// route lost, e.g. the serving relay crashed). The reconnection driver
  /// (client::ClientController) hooks this to start its backoff loop.
  void set_on_connection_lost(std::function<void()> cb) { on_connection_lost_ = std::move(cb); }

  /// Fires whenever the applied video encode target changes (policy push,
  /// congestion adaptation, ABR override). This is ground-truth-side
  /// instrumentation: bench_qoe_inference records the true bitrate timeline
  /// through it to score the header-free estimate — the estimator itself
  /// never sees it. Unset (the default) costs one branch per encode tick.
  void set_on_target_change(std::function<void(SimTime, DataRate)> cb) {
    on_target_change_ = std::move(cb);
  }

  /// One reconnection attempt: asks the platform to re-attach this member
  /// (re-register with the relay, re-push route and subscriptions). Returns
  /// true once routed again; false while the infrastructure is still down.
  bool rejoin();

  /// Switches the UI layout (full screen / gallery / screen-off).
  void set_view_mode(platform::ViewMode view);
  platform::ViewMode view_mode() const { return config_.view; }

  /// Renders the current screen content (what simplescreenrecorder grabs).
  media::Frame render_screen() const;
  /// The received (decoded, concealed) audio mix so far.
  media::AudioSignal received_audio() const;

  /// Number of distinct remote video streams seen so far.
  int active_video_streams() const {
    int n = 0;
    for (const auto& [origin, rx] : video_rx_) {
      if (rx.any_seen) ++n;
    }
    return n;
  }

  /// Current video encode target (after policy + adaptation + ABR).
  DataRate current_video_target() const { return video_target_; }
  /// Sent video rate policy base for this session.
  DataRate session_base_rate() const { return session_base_; }
  /// What the platform-pushed policy alone would encode at right now (equals
  /// current_video_target() unless a non-shadow ABR adapter overrides it).
  DataRate platform_video_target() const { return platform_target_; }

  /// (Re)arms client-side ABR with `config` (kNone disarms); adapter state
  /// resets. Safe at any time, including mid-meeting.
  void set_abr(const abr::AbrConfig& config);
  /// The armed adapter, nullptr when ABR is off.
  const abr::AbrAlgo* abr() const { return abr_.get(); }
  /// The adapter's most recent applied target; zero before any decision.
  DataRate abr_target() const { return abr_target_; }

 private:
  struct RxStream {
    std::unique_ptr<media::VideoDecoder> decoder;
    struct Pending {
      std::shared_ptr<const media::EncodedFrame> frame;
      int fragments_got = 0;
      int fragments_needed = 0;
    };
    std::map<std::uint64_t, Pending> pending;   // frame seq → assembly state
    std::uint64_t highest_seq_seen = 0;
    bool any_seen = false;
    // Per-feedback-window accounting.
    std::int64_t window_started = 0;
    std::int64_t window_completed = 0;
    // ABR feedback accounting (maintained only when Config.abr_feedback).
    std::int64_t window_bytes = 0;
    std::int64_t window_pkts = 0;
    SimTime window_first_arrival{};
    SimTime window_last_arrival{};
    double window_delay_sum_ms = 0.0;
    /// Session-minimum one-way delay: the propagation baseline subtracted
    /// from the window mean to isolate queuing.
    double base_delay_ms = -1.0;
  };

  void on_route(platform::RouteInfo route);
  void on_packet(const net::Packet& pkt);
  void on_video_packet(const net::Packet& pkt);
  void on_audio_packet(const net::Packet& pkt);
  void on_control_packet(const net::Packet& pkt);
  void video_tick();
  void audio_tick();
  void feedback_tick();
  void update_video_target();
  void send_media_packet(net::Packet pkt);

  net::Host& host_;
  platform::BasePlatform& platform_;
  Config config_;
  Rng rng_;

  VideoLoopbackDevice video_dev_;
  AudioLoopbackDevice audio_dev_;
  net::UdpSocket* socket_ = nullptr;

  platform::MeetingId meeting_ = 0;
  platform::ParticipantId participant_id_ = 0;
  bool in_meeting_ = false;
  bool has_route_ = false;
  platform::RouteInfo route_;
  std::function<void()> on_connection_lost_;
  std::function<void(SimTime, DataRate)> on_target_change_;
  DataRate notified_target_ = DataRate::zero();

  // --- sending ---
  std::unique_ptr<media::VideoEncoder> encoder_;
  std::unique_ptr<media::AudioEncoder> audio_encoder_;
  std::size_t audio_cursor_ = 0;
  DataRate session_base_ = DataRate::zero();
  double session_factor_ = 1.0;   // per-session lognormal draw
  bool session_factor_drawn_ = false;
  double wobble_ = 1.0;           // in-session drift
  double adapt_factor_ = 1.0;     // congestion backoff
  int consecutive_loss_ = 0;
  int consecutive_clean_ = 0;
  bool emergency_ = false;        // video collapsed to survival rate
  DataRate video_target_ = DataRate::zero();
  DataRate platform_target_ = DataRate::zero();
  std::unique_ptr<abr::AbrAlgo> abr_;
  DataRate abr_target_ = DataRate::zero();
  int last_known_participants_ = 1;
  std::int64_t synthetic_seq_ = 0;

  // --- receiving ---
  std::unordered_map<std::uint32_t, RxStream> video_rx_;
  std::vector<float> audio_mix_;
  std::size_t audio_mix_len_ = 0;

  Stats stats_;
  MetricsRegistry::Counter* m_video_encoded_ = nullptr;
  MetricsRegistry::Counter* m_video_decoded_ = nullptr;
  MetricsRegistry::Counter* m_video_encoded_bytes_ = nullptr;
  MetricsRegistry::Counter* m_audio_encoded_ = nullptr;
  MetricsRegistry::Histogram* m_skip_ratio_ = nullptr;
  MetricsRegistry::Histogram* m_qstep_ = nullptr;
  MetricsRegistry::Counter* m_abr_decisions_ = nullptr;
  MetricsRegistry::Counter* m_abr_switches_ = nullptr;
  MetricsRegistry::Histogram* m_abr_tier_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::uint64_t epoch_ = 0;  // invalidates scheduled ticks after leave()
  net::EventId video_ev_ = 0;
  net::EventId audio_ev_ = 0;
  net::EventId feedback_ev_ = 0;
};

}  // namespace vc::client
