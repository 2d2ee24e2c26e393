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
// Fan-out sharding (PR 3): the per-receiver copy/scale/stage work of one
// ingested packet is independent per Participant, so a relay can partition a
// meeting's receivers into K contiguous join-order shards and run them on a
// ShardPool. Shards stage their work instead of touching the event loop;
// the caller then merges the staged work back in (shard index, then join
// order within the shard) order — which, because the partition is
// contiguous, is exactly the serial path's join order, so schedule_at
// sequence, batch composition and every downstream tiebreak are
// byte-identical to K=0. Combined with the one-draw-per-ingest jitter rule
// (see forward_media) the sharded path is byte-identical at any K.
//
// The one-draw rule also restructures the serial hot path: every copy whose
// FIFO floor permits it departs at the ingest's shared candidate tick, so
// those copies — nearly all of them, in steady state — ride ONE ingest-wide
// departure batch (one allocation, recycled after firing, and one scheduled
// event per ingested packet) instead of a batch per destination. Floored
// copies append to their destination's still-open batch from an earlier
// ingest and schedule nothing; only the rare floored copy with no matching
// open batch pays for a fresh per-destination batch and event.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/shard_pool.h"
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
  /// determinism contract: byte-identical at every fan-out shard count.
  ///
  /// On a traced network, media ingests become `relay.ingest` spans (ingest
  /// time → shared candidate departure tick, value = participant copies),
  /// departure events `relay.depart` instants (value = batch size), probe
  /// answers `relay.probe` instants — all on the loop thread and
  /// byte-identical at every shard count K. When the tracer's shard_detail
  /// flag is set, each sharded fan-out additionally records one
  /// `relay.shard_merge` instant per shard (value = that shard's copies) —
  /// K-dependent by construction, hence OUTSIDE the determinism contract.
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

  /// Shards this relay's media fan-out into `shards` contiguous join-order
  /// partitions, executed on `pool` when one is given (pool == nullptr, or a
  /// pool with zero workers, runs the shards inline on the event-loop thread
  /// — same staged code path, no threads). shards <= 0 restores the plain
  /// serial loop. The forwarding semantics — departure times, FIFO floors,
  /// batch composition, event order, Stats, standard metrics — are identical
  /// at every setting; only wall-clock differs.
  /// The pool is borrowed, not owned, and must outlive the relay (or be
  /// detached by passing nullptr); several relays may share one pool because
  /// fan-outs are dispatched one at a time from the single event-loop thread.
  void set_fan_out_sharding(ShardPool* pool, int shards);
  int fan_out_shards() const { return shards_; }

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
  /// after the batch is sealed, on the event-loop thread, which is what keeps
  /// the trunked path inside the shard-determinism contract. An empty route
  /// map costs one branch per departure event (the fleet-of-1 gate's ≤2%
  /// budget). Passing a null `send` removes the route.
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
  /// loop already holds that record, so departure lookup costs nothing — and
  /// under sharding it makes each destination's pipeline state owned by
  /// exactly one shard (participants are partitioned), so shard workers
  /// never share mutable state.
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

  /// A departure batch a shard opened but could not schedule (scheduling is
  /// the caller's job, in deterministic merge order).
  struct StagedBatch {
    SimTime tick{};
    std::shared_ptr<DepartureBatch> batch;
  };
  /// A packet a shard wants appended to an already-open batch. Appending
  /// directly would race: the target can be a previous ingest's shared
  /// candidate batch, which several shards' destinations reference at once.
  /// Staging keeps the append on the merge step (loop thread), where shard
  /// order reproduces the serial path's join-order append sequence.
  struct StagedAppend {
    DepartureBatch* target = nullptr;
    net::Packet pkt;
  };
  /// Per-shard staging area, cacheline-isolated against false sharing.
  /// Reused across fan-outs so the steady state allocates nothing.
  struct alignas(64) ShardScratch {
    std::vector<StagedBatch> staged;
    std::vector<StagedAppend> appends;
    /// This shard's slice of the ingest-wide candidate batch. Pre-seeded on
    /// the loop thread before dispatch (workers never allocate batches) and
    /// retained — emptied by the merge splice — across fan-outs.
    std::shared_ptr<DepartureBatch> cand;
    /// Destinations whose open-batch handle must be repointed to the spliced
    /// ingest-wide batch at merge (workers only see their own slice).
    std::vector<Departure*> cand_deps;
    std::int64_t copies = 0;
  };

  void on_packet(const net::Packet& pkt);
  void forward_media(Meeting& meeting, const net::Packet& pkt, bool from_peer);
  /// Fans pkt out to all participants (serial or sharded per shards_),
  /// returning the number of copies forwarded.
  std::int64_t fan_out_media(Meeting& meeting, const net::Packet& pkt, SimTime candidate);
  /// The per-receiver loop body shared by the serial path and every shard:
  /// copy/scale/floor/route for participants [begin, end), in join order.
  /// Each copy takes exactly one of three routes:
  ///   * floor < candidate — the common, unconstrained case: the copy departs
  ///     at this ingest's shared candidate tick; `on_candidate(dep, pkt)`
  ///     collects it into the ingest-wide batch (one event for the whole
  ///     fan-out) and the caller repoints dep.open at that batch;
  ///   * the destination's open batch is at the required tick —
  ///     `on_append(batch, pkt)` joins it, never scheduling;
  ///   * otherwise a fresh per-destination batch goes to `sink(tick, batch)`.
  /// Returns the number of copies made.
  template <class NewBatchSink, class OnCandidate, class OnAppend>
  std::int64_t fan_out_range(Meeting& meeting, const net::Packet& pkt, SimTime candidate,
                             std::size_t begin, std::size_t end, NewBatchSink&& sink,
                             OnCandidate&& on_candidate, OnAppend&& on_append);

  /// This ingest's jittered departure candidate: now + base + exp(jitter).
  /// Drawn ONCE per ingested packet, on the event-loop thread (see
  /// forward_media for why that is the determinism linchpin).
  SimTime departure_candidate();
  /// Runs pkt through the destination's departure pipeline at `candidate`
  /// (FIFO floor, batch coalescing), scheduling any newly opened batch.
  void send_with_candidate(net::Packet pkt, Departure& dep, SimTime candidate);
  /// Schedules the departure event that seals and transmits `batch`.
  void schedule_departure(SimTime tick, std::shared_ptr<DepartureBatch> batch);
  /// Final egress of one departed packet: a registered trunk route when the
  /// destination is a trunked peer, the relay's UDP socket otherwise.
  void transmit(net::Packet&& pkt);
  /// Like schedule_departure, but for an ingest-wide candidate batch: after
  /// transmitting, the batch is recycled onto batch_spares_ when no departure
  /// pipeline references it any more (destinations usually repoint their
  /// open-batch handle to a newer ingest long before the old one fires, so
  /// the steady state reuses one allocation instead of making a fresh batch —
  /// and a fresh packet-vector growth chain — per ingested packet).
  void schedule_candidate_departure(SimTime tick, std::shared_ptr<DepartureBatch> batch);
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

  ShardPool* pool_ = nullptr;  // borrowed; nullptr ⇒ shards run inline
  int shards_ = 0;             // <= 0 ⇒ serial fan-out
  std::vector<ShardScratch> scratch_;
  /// Fired candidate batches ready for reuse (loop thread only).
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
