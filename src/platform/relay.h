// Relay (SFU) servers — the "service endpoints" the paper discovers in
// traffic (Fig 3).
//
// Zoom and Webex use one relay per meeting that every participant streams
// through; Meet gives each client a nearby front-end and relays meetings
// across front-ends. A relay:
//   * forwards each sender's media to the meeting's other participants,
//     applying per-(receiver, origin) subscription scales (simulcast layer
//     selection / tiling policy);
//   * forwards media to peer front-ends (Meet) exactly once, never back;
//   * answers probe packets (the tcpping analog) — ICMP is "blocked", like
//     the real infrastructures.
//
// One jitter draw per ingest (see forward_media) shapes the hot path: every
// copy whose FIFO floor permits it departs at the ingest's shared candidate
// tick, so those copies — nearly all of them, in steady state — ride ONE
// ingest-wide departure batch (one allocation, recycled after firing, and one
// scheduled event per ingested packet) instead of a batch per destination.
// Floored copies append to their destination's still-open batch from an
// earlier ingest and schedule nothing; only the rare floored copy with no
// matching open batch pays for a fresh per-destination batch and event.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/tracer.h"
#include "net/network.h"
#include "platform/platform.h"

namespace vc::platform {

class RelayServer {
 public:
  struct Stats {
    std::int64_t media_in = 0;
    /// Media copies forwarded to meeting participants (excludes peer links).
    std::int64_t media_forwarded = 0;
    /// Media copies forwarded to peer front-ends (Meet's inter-relay leg).
    /// Kept separate from media_forwarded: a peer forward carries the whole
    /// meeting's traffic onward, not one receiver's subscription, so mixing
    /// the two made the fan-out figures overstate per-receiver load.
    std::int64_t peer_forwarded = 0;
    std::int64_t probes_answered = 0;
    std::int64_t control_forwarded = 0;
    /// Packets (media, control and probes alike) that arrived while the
    /// relay was crashed — the fault subsystem's "packets lost in outage".
    std::int64_t crash_dropped = 0;
    std::int64_t crashes = 0;
    std::int64_t restarts = 0;
    /// Packets ingested over relay-to-relay trunks (src/fleet). Like Meet's
    /// peer ingest, trunk ingest is not counted in media_in: media_in is
    /// first-hop load, and a cascaded packet was already counted once at its
    /// ingress relay.
    std::int64_t trunk_in = 0;
  };

  /// Media-plane processing latency added per forwarded packet (ingest,
  /// decrypt/reencrypt, packetization). The paper's lag floors imply
  /// platform-specific relay costs: Webex's pipeline is the leanest, Meet's
  /// front-ends add noticeably more (and more variable) latency — the
  /// paper's "worst lag despite the lowest RTTs" observation.
  struct ForwardingDelay {
    SimDuration base = millis(6);
    double jitter_mean_ms = 2.0;  // exponential
  };

  /// On an instrumented network the relay reports into the network's
  /// registry under the shared `relay.*` names, so several relays' counts
  /// aggregate into the infrastructure-wide view scalability reports want:
  /// `relay.media_in`, `.media_forwarded`, `.peer_forwarded`,
  /// `.probes_answered`, `.control_forwarded`, `.crash_dropped`, `.crashes`,
  /// `.restarts` and `.trunk_in` counters plus `relay.fan_out` (participant
  /// copies per ingested media packet — peer-link forwards are counted in
  /// peer_forwarded, not here) and `relay.departure_batch_pkts` (packets per
  /// scheduled departure event) histograms. These metrics are part of the
  /// determinism contract: byte-identical at any runner thread count.
  ///
  /// On a traced network, media ingests become `relay.ingest` spans (ingest
  /// time → shared candidate departure tick, value = participant copies),
  /// departure events `relay.depart` instants (value = batch size), probe
  /// answers `relay.probe` instants.
  RelayServer(net::Network& network, std::string name, GeoPoint location,
              std::uint16_t media_port);  // default forwarding delay
  RelayServer(net::Network& network, std::string name, GeoPoint location,
              std::uint16_t media_port, ForwardingDelay delay);

  net::Host& host() { return *host_; }
  net::Endpoint endpoint() const { return net::Endpoint{host_->ip(), media_port_}; }
  const Stats& stats() const { return stats_; }
  /// Live per-destination departure-state entries. Departure state lives
  /// inside Participant/PeerLink records, so removing a participant, meeting
  /// or peer link structurally reclaims it (the predecessor kept a separate
  /// endpoint-keyed map that grew without bound across sessions); exposed so
  /// tests can assert the reclamation.
  std::size_t departure_state_size() const {
    std::size_t n = 0;
    for (const auto& [id, m] : meetings_) n += m.participants.size() + m.peers.size();
    return n;
  }

  /// Process crash: all meeting/participant/peer registrations are lost (a
  /// real SFU restart loses its session state) and every packet arriving
  /// until restart() is dropped and counted in `crash_dropped`. The control
  /// plane (BasePlatform::notify_relay_crashed) is responsible for telling
  /// clients their route died; rejoining clients re-register and get their
  /// subscriptions re-pushed. Deterministic: a crashed relay draws no
  /// randomness, so the network RNG stream is byte-identical to a run where
  /// the dropped packets simply never existed downstream.
  void crash();
  void restart();
  bool crashed() const { return crashed_; }

  void add_participant(MeetingId meeting, ParticipantId id, net::Endpoint client_endpoint);
  void remove_participant(MeetingId meeting, ParticipantId id);
  void remove_meeting(MeetingId meeting);

  /// Replaces the receiver's video subscriptions (empty = receive nothing).
  void set_subscriptions(MeetingId meeting, ParticipantId receiver,
                         std::vector<StreamSubscription> subs);

  /// Links a peer front-end for a meeting (Meet). One direction; callers
  /// link both ways.
  void link_peer(MeetingId meeting, RelayServer* peer);
  void unlink_peer(MeetingId meeting, RelayServer* peer);

  /// Trunk egress (src/fleet cascaded relays): packets departing toward
  /// `peer_endpoint` are handed to `send` at their departure tick instead of
  /// this relay's UDP socket, so a fleet::Trunk can model the inter-relay
  /// leg's capacity and propagation explicitly. Departure scheduling, FIFO
  /// floors and batch composition are untouched — the interception happens
  /// after the batch is sealed, so trunked departures keep the untrunked
  /// path's event order. An empty route map costs one branch per departure
  /// event (the fleet-of-1 gate's ≤2% budget). Passing a null `send` removes
  /// the route.
  void set_trunk_egress(net::Endpoint peer_endpoint, std::function<void(net::Packet)> send);

  /// Ingest from a trunk, bypassing the network/UDP path. Demuxed by
  /// pkt.meeting (one trunk aggregates many meetings); treated exactly like
  /// a Meet peer ingest: from_peer semantics, never re-forwarded to peers,
  /// not counted in media_in. Dropped (and counted in crash_dropped) while
  /// crashed, like any other arriving packet.
  void ingest_trunk(const net::Packet& pkt);

 private:
  /// Packets departing to one destination at one tick. A batch rides a
  /// single scheduled event; `sealed` flips when that event fires so a
  /// zero-delay pipeline can never append to a batch that already left.
  struct DepartureBatch {
    std::vector<net::Packet> packets;
    bool sealed = false;
  };
  /// Per-destination departure pipeline state. `floor` is the earliest next
  /// departure: the media pipeline is FIFO per flow, so jittered processing
  /// delays never reorder a stream. Departures are therefore monotonic per
  /// destination, and at most one batch (the latest tick) is open at a time.
  /// Stored inline in the Participant/PeerLink it belongs to: the forwarding
  /// loop already holds that record, so departure lookup costs nothing.
  ///
  /// Semantic note: because the floor lives in the registration record, the
  /// FIFO guarantee is scoped to one registration. A participant that is
  /// removed and re-added starts with a fresh floor, so its new packets may
  /// interleave with batches still in flight from before the removal (the
  /// old endpoint-keyed global map persisted the floor across re-joins, at
  /// the cost of leaking an entry per departed endpoint forever). This
  /// mirrors a real rejoin, which negotiates a new transport with no
  /// ordering relative to the abandoned one.
  struct Departure {
    SimTime floor{};
    SimTime open_tick{};
    std::shared_ptr<DepartureBatch> open;
  };

  struct Participant {
    ParticipantId id = 0;
    net::Endpoint endpoint;
    /// origin participant → forwarding scale for video.
    std::unordered_map<ParticipantId, double> video_scale;
    /// Until the control plane pushes subscriptions, forward everything;
    /// afterwards, an origin absent from the map means "not subscribed"
    /// (this is what makes audio-only/screen-off stop video entirely).
    bool subscriptions_set = false;
    Departure departure;
  };
  struct PeerLink {
    RelayServer* relay = nullptr;
    Departure departure;
  };
  struct Meeting {
    /// Own id, so forwarding paths holding only the Meeting& can stamp
    /// inter-relay copies with the meeting they belong to (trunk demux).
    MeetingId id = 0;
    std::vector<Participant> participants;
    std::vector<PeerLink> peers;
  };

  void on_packet(const net::Packet& pkt);
  void forward_media(Meeting& meeting, const net::Packet& pkt, bool from_peer);
  /// Copies pkt to every other participant, in join order, returning the
  /// number of copies forwarded. Each copy takes exactly one of three routes:
  ///   * floor < candidate — the common, unconstrained case: the copy joins
  ///     this ingest's shared candidate batch (one event for the whole
  ///     fan-out, scheduled after the loop);
  ///   * the destination's open batch is at the required tick — the copy
  ///     joins it, never scheduling;
  ///   * otherwise a fresh per-destination batch is scheduled on the spot.
  /// The last two are send_with_candidate's, with the floor as the tick.
  std::int64_t fan_out_media(Meeting& meeting, const net::Packet& pkt, SimTime candidate);

  /// This ingest's jittered departure candidate: now + base + exp(jitter).
  /// Drawn ONCE per ingested packet (see forward_media).
  SimTime departure_candidate();
  /// Runs pkt through the destination's departure pipeline at `candidate`
  /// (FIFO floor, batch coalescing), scheduling any newly opened batch.
  void send_with_candidate(net::Packet pkt, Departure& dep, SimTime candidate);
  /// Schedules the departure event that seals and transmits `batch`, then
  /// recycles it onto batch_spares_ when the event holds its only reference
  /// (destinations usually repoint their open-batch handle to a newer batch
  /// long before the old one fires, so the steady state reuses a few
  /// allocations instead of making a fresh batch, and a fresh packet-vector
  /// growth chain, per ingested packet).
  void schedule_departure(SimTime tick, std::shared_ptr<DepartureBatch> batch);
  /// Final egress of one departed packet: a registered trunk route when the
  /// destination is a trunked peer, the relay's UDP socket otherwise.
  void transmit(net::Packet&& pkt);
  /// An empty, unsealed batch: recycled from batch_spares_ when possible,
  /// freshly allocated (with `reserve_hint` packet capacity) otherwise.
  std::shared_ptr<DepartureBatch> acquire_batch(std::size_t reserve_hint);

  net::Network& network_;
  net::Host* host_;
  std::uint16_t media_port_;
  ForwardingDelay delay_;
  net::UdpSocket* socket_;
  std::unordered_map<MeetingId, Meeting> meetings_;
  /// sender endpoint → (meeting, participant) for packet classification.
  std::unordered_map<net::Endpoint, std::pair<MeetingId, ParticipantId>> by_sender_;
  /// peer relay endpoint → meeting id.
  std::unordered_map<net::Endpoint, MeetingId> by_peer_;
  /// peer relay endpoint → trunk egress (src/fleet). Consulted at departure
  /// fire time; empty for untrunked relays, so the common path pays only a
  /// hoisted emptiness check per departure event.
  std::unordered_map<net::Endpoint, std::function<void(net::Packet)>> trunk_routes_;
  Stats stats_;
  bool crashed_ = false;

  /// Fired batches ready for reuse.
  std::vector<std::shared_ptr<DepartureBatch>> batch_spares_;

  MetricsRegistry::Counter* m_media_in_ = nullptr;
  MetricsRegistry::Counter* m_media_forwarded_ = nullptr;
  MetricsRegistry::Counter* m_peer_forwarded_ = nullptr;
  MetricsRegistry::Counter* m_probes_answered_ = nullptr;
  MetricsRegistry::Counter* m_control_forwarded_ = nullptr;
  MetricsRegistry::Counter* m_crash_dropped_ = nullptr;
  MetricsRegistry::Counter* m_crashes_ = nullptr;
  MetricsRegistry::Counter* m_restarts_ = nullptr;
  MetricsRegistry::Counter* m_trunk_in_ = nullptr;
  MetricsRegistry::Histogram* m_fan_out_ = nullptr;
  MetricsRegistry::Histogram* m_departure_batch_pkts_ = nullptr;

  Tracer* tracer_ = nullptr;
};

}  // namespace vc::platform
