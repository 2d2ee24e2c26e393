#include "platform/relay.h"

#include <algorithm>
#include <cmath>

namespace vc::platform {

namespace {
/// Cap on recycled candidate batches kept for reuse: bounds what a burst of
/// concurrently in-flight ingests leaves behind.
constexpr std::size_t kMaxBatchSpares = 16;
}  // namespace

RelayServer::RelayServer(net::Network& network, std::string name, GeoPoint location,
                         std::uint16_t media_port)
    : RelayServer(network, std::move(name), location, media_port, ForwardingDelay{}) {}

RelayServer::RelayServer(net::Network& network, std::string name, GeoPoint location,
                         std::uint16_t media_port, ForwardingDelay delay)
    : network_(network),
      host_(&network.add_host(std::move(name), location)),
      media_port_(media_port),
      delay_(delay),
      tracer_(network.instruments().tracer) {
  socket_ = &host_->udp_bind(media_port_);
  socket_->on_receive([this](const net::Packet& pkt) { on_packet(pkt); });
  if (MetricsRegistry* registry = network.instruments().metrics) {
    m_media_in_ = &registry->counter("relay.media_in");
    m_media_forwarded_ = &registry->counter("relay.media_forwarded");
    m_peer_forwarded_ = &registry->counter("relay.peer_forwarded");
    m_probes_answered_ = &registry->counter("relay.probes_answered");
    m_control_forwarded_ = &registry->counter("relay.control_forwarded");
    m_crash_dropped_ = &registry->counter("relay.crash_dropped");
    m_crashes_ = &registry->counter("relay.crashes");
    m_restarts_ = &registry->counter("relay.restarts");
    m_trunk_in_ = &registry->counter("relay.trunk_in");
    m_fan_out_ = &registry->histogram("relay.fan_out");
    m_departure_batch_pkts_ = &registry->histogram("relay.departure_batch_pkts");
  }
}

SimTime RelayServer::departure_candidate() {
  const SimDuration d =
      delay_.base + millis_f(network_.rng().exponential(delay_.jitter_mean_ms));
  return network_.now() + d;
}

void RelayServer::send_with_candidate(net::Packet pkt, Departure& dep, SimTime candidate) {
  // FIFO per destination: a later packet never departs before an earlier one.
  // Under load the floor dominates the jittered delay, so consecutive
  // packets to one receiver collapse onto the same tick — those ride the
  // destination's open batch instead of scheduling fresh events.
  const SimTime departure = candidate < dep.floor ? dep.floor : candidate;
  dep.floor = departure;
  if (dep.open && !dep.open->sealed && dep.open_tick == departure) {
    dep.open->packets.push_back(std::move(pkt));
    return;
  }
  auto batch = std::make_shared<DepartureBatch>();
  batch->packets.push_back(std::move(pkt));
  dep.open = batch;
  dep.open_tick = departure;
  schedule_departure(departure, std::move(batch));
}

void RelayServer::transmit(net::Packet&& pkt) {
  if (!trunk_routes_.empty()) {
    const auto it = trunk_routes_.find(pkt.dst);
    if (it != trunk_routes_.end()) {
      it->second(std::move(pkt));
      return;
    }
  }
  socket_->send(std::move(pkt));
}

void RelayServer::schedule_departure(SimTime tick, std::shared_ptr<DepartureBatch> batch) {
  network_.loop().schedule_at(tick, [this, batch = std::move(batch)] {
    batch->sealed = true;
    if (m_departure_batch_pkts_ != nullptr) {
      m_departure_batch_pkts_->observe(static_cast<double>(batch->packets.size()));
    }
    if (tracer_ != nullptr) {
      tracer_->instant("relay.depart", network_.now(), static_cast<double>(batch->packets.size()));
    }
    for (net::Packet& p : batch->packets) transmit(std::move(p));
  });
}

void RelayServer::schedule_candidate_departure(SimTime tick,
                                               std::shared_ptr<DepartureBatch> batch) {
  network_.loop().schedule_at(tick, [this, batch = std::move(batch)]() mutable {
    batch->sealed = true;
    if (m_departure_batch_pkts_ != nullptr) {
      m_departure_batch_pkts_->observe(static_cast<double>(batch->packets.size()));
    }
    if (tracer_ != nullptr) {
      tracer_->instant("relay.depart", network_.now(), static_cast<double>(batch->packets.size()));
    }
    for (net::Packet& p : batch->packets) transmit(std::move(p));
    // Recycle only when this event holds the sole reference: a destination
    // whose open-batch handle still points here may yet append at this tick
    // (zero-delay pipelines), so its batch must stay sealed, not reused.
    if (batch.use_count() == 1 && batch_spares_.size() < kMaxBatchSpares) {
      batch->packets.clear();
      batch->sealed = false;
      batch_spares_.push_back(std::move(batch));
    }
  });
}

std::shared_ptr<RelayServer::DepartureBatch> RelayServer::acquire_batch(
    std::size_t reserve_hint) {
  if (!batch_spares_.empty()) {
    std::shared_ptr<DepartureBatch> b = std::move(batch_spares_.back());
    batch_spares_.pop_back();
    return b;  // empty and unsealed, with its packet capacity retained
  }
  auto b = std::make_shared<DepartureBatch>();
  b->packets.reserve(reserve_hint);
  return b;
}

void RelayServer::set_trunk_egress(net::Endpoint peer_endpoint,
                                   std::function<void(net::Packet)> send) {
  if (!send) {
    trunk_routes_.erase(peer_endpoint);
    return;
  }
  trunk_routes_[peer_endpoint] = std::move(send);
}

void RelayServer::ingest_trunk(const net::Packet& pkt) {
  if (crashed_) {
    ++stats_.crash_dropped;
    if (m_crash_dropped_) m_crash_dropped_->inc();
    return;
  }
  // A trunk multiplexes many meetings onto one relay-pair link, so demux is
  // by the packet's meeting tag rather than by source endpoint (the by_peer_
  // map can bind an endpoint to only one meeting).
  auto m_it = meetings_.find(pkt.meeting);
  if (m_it == meetings_.end()) return;  // meeting re-homed or gone: drop
  ++stats_.trunk_in;
  if (m_trunk_in_) m_trunk_in_->inc();
  forward_media(m_it->second, pkt, /*from_peer=*/true);
}

void RelayServer::add_participant(MeetingId meeting, ParticipantId id,
                                  net::Endpoint client_endpoint) {
  Meeting& m = meetings_[meeting];
  m.id = meeting;
  for (const auto& p : m.participants) {
    if (p.id == id) return;  // idempotent re-registration
  }
  Participant p;
  p.id = id;
  p.endpoint = client_endpoint;
  m.participants.push_back(std::move(p));
  by_sender_[client_endpoint] = {meeting, id};
}

void RelayServer::remove_participant(MeetingId meeting, ParticipantId id) {
  auto it = meetings_.find(meeting);
  if (it == meetings_.end()) return;
  auto& parts = it->second.participants;
  for (const auto& p : parts) {
    if (p.id == id) by_sender_.erase(p.endpoint);
  }
  // In-flight batches keep their own (shared) packet storage; erasing the
  // record only drops the departure pipeline state (FIFO floor + open-batch
  // handle). A later re-add starts a fresh floor — see the semantic note on
  // Departure in relay.h.
  std::erase_if(parts, [id](const Participant& p) { return p.id == id; });
}

void RelayServer::remove_meeting(MeetingId meeting) {
  auto it = meetings_.find(meeting);
  if (it == meetings_.end()) return;
  for (const auto& p : it->second.participants) by_sender_.erase(p.endpoint);
  for (const PeerLink& pl : it->second.peers) by_peer_.erase(pl.relay->endpoint());
  // Note: peers unlink us independently via their own remove_meeting.
  // Erasing the meeting reclaims all its departure pipeline state too.
  meetings_.erase(it);
}

void RelayServer::set_subscriptions(MeetingId meeting, ParticipantId receiver,
                                    std::vector<StreamSubscription> subs) {
  auto it = meetings_.find(meeting);
  if (it == meetings_.end()) return;
  for (auto& p : it->second.participants) {
    if (p.id != receiver) continue;
    p.video_scale.clear();
    for (const auto& s : subs) p.video_scale[s.origin] = s.scale;
    p.subscriptions_set = true;
    return;
  }
}

void RelayServer::link_peer(MeetingId meeting, RelayServer* peer) {
  if (peer == nullptr || peer == this) return;
  Meeting& m = meetings_[meeting];
  m.id = meeting;
  for (const PeerLink& pl : m.peers) {
    if (pl.relay == peer) return;
  }
  PeerLink link;
  link.relay = peer;
  m.peers.push_back(std::move(link));
  by_peer_[peer->endpoint()] = meeting;
}

void RelayServer::unlink_peer(MeetingId meeting, RelayServer* peer) {
  auto it = meetings_.find(meeting);
  if (it == meetings_.end() || peer == nullptr) return;
  std::erase_if(it->second.peers, [peer](const PeerLink& pl) { return pl.relay == peer; });
  by_peer_.erase(peer->endpoint());
}

void RelayServer::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  if (m_crashes_) m_crashes_->inc();
  if (tracer_ != nullptr) tracer_->instant("relay.crash", network_.now(), 0.0);
  // A process crash loses all session state: rejoining clients must
  // re-register and have their subscriptions re-pushed by the control plane.
  // (In-flight departure batches own their packet storage and fire normally
  // — those packets already left this process.)
  meetings_.clear();
  by_sender_.clear();
  by_peer_.clear();
}

void RelayServer::restart() {
  if (!crashed_) return;
  crashed_ = false;
  ++stats_.restarts;
  if (m_restarts_) m_restarts_->inc();
  if (tracer_ != nullptr) tracer_->instant("relay.restart", network_.now(), 0.0);
}

void RelayServer::on_packet(const net::Packet& pkt) {
  if (crashed_) {
    // Dead process: everything — probes included — vanishes. No RNG draw,
    // no reply, just the outage-loss counter.
    ++stats_.crash_dropped;
    if (m_crash_dropped_) m_crash_dropped_->inc();
    return;
  }
  // Probes are answered by the infrastructure itself, from any sender.
  if (pkt.kind == net::StreamKind::kProbe) {
    net::Packet reply;
    reply.dst = pkt.src;
    reply.l7_len = pkt.l7_len;
    reply.kind = net::StreamKind::kProbeReply;
    reply.seq = pkt.seq;
    socket_->send(std::move(reply));
    ++stats_.probes_answered;
    if (m_probes_answered_) m_probes_answered_->inc();
    if (tracer_ != nullptr) {
      tracer_->instant("relay.probe", network_.now(), static_cast<double>(pkt.l7_len));
    }
    return;
  }

  // Packet from a peer front-end (Meet inter-relay leg)?
  if (auto peer_it = by_peer_.find(pkt.src); peer_it != by_peer_.end()) {
    auto m_it = meetings_.find(peer_it->second);
    if (m_it != meetings_.end()) forward_media(m_it->second, pkt, /*from_peer=*/true);
    return;
  }

  // Packet from a registered participant?
  auto s_it = by_sender_.find(pkt.src);
  if (s_it == by_sender_.end()) return;  // stray traffic: drop silently
  auto m_it = meetings_.find(s_it->second.first);
  if (m_it == meetings_.end()) return;
  ++stats_.media_in;
  if (m_media_in_) m_media_in_->inc();
  forward_media(m_it->second, pkt, /*from_peer=*/false);
}

std::int64_t RelayServer::fan_out_media(Meeting& meeting, const net::Packet& pkt,
                                        SimTime candidate) {
  auto& parts = meeting.participants;
  const std::size_t n = parts.size();
  // Unconstrained copies accumulate into one ingest-wide batch, scheduled
  // after the loop; newly opened per-destination batches are scheduled as
  // they open, and appends never schedule.
  std::shared_ptr<DepartureBatch> cand;
  std::int64_t copies = 0;
  for (Participant& p : parts) {
    if (p.id == pkt.origin_id) continue;  // never echo back to the sender
    net::Packet copy = pkt;
    copy.dst = p.endpoint;
    if (pkt.kind == net::StreamKind::kVideo) {
      // video_scale is only ever populated together with subscriptions_set,
      // so the (common) no-subscriptions receiver skips the hash probe.
      double scale = 1.0;
      if (p.subscriptions_set) {
        const auto scale_it = p.video_scale.find(pkt.origin_id);
        scale = scale_it != p.video_scale.end() ? scale_it->second : 0.0;
      }
      if (scale <= 0.0) continue;  // not subscribed
      if (scale < 1.0) {
        // Simulcast layer selection: a thinner encoding of the same stream.
        // The thinned stream is not pixel-decodable (used by the mobile and
        // gallery scenarios, which measure traffic/resources, not pixels).
        copy.l7_len = std::max<std::int64_t>(
            static_cast<std::int64_t>(
                std::llround(static_cast<double>(pkt.l7_len) * scale)),
            24);
        copy.payload = nullptr;
      }
    }
    // The destination's departure pipeline: depart at the ingest's shared
    // candidate tick unless this flow's FIFO floor pushes the copy later.
    Departure& dep = p.departure;
    if (dep.floor < candidate) {
      dep.floor = candidate;
      dep.open_tick = candidate;
      if (!cand) cand = acquire_batch(n);
      dep.open = cand;
      cand->packets.push_back(std::move(copy));
    } else {
      const SimTime departure = dep.floor;
      if (dep.open && !dep.open->sealed && dep.open_tick == departure) {
        dep.open->packets.push_back(std::move(copy));
      } else {
        auto batch = std::make_shared<DepartureBatch>();
        batch->packets.push_back(std::move(copy));
        dep.open = batch;
        dep.open_tick = departure;
        schedule_departure(departure, std::move(batch));
      }
    }
    ++copies;
  }
  if (cand) schedule_candidate_departure(candidate, std::move(cand));
  return copies;
}

void RelayServer::forward_media(Meeting& meeting, const net::Packet& pkt, bool from_peer) {
  // ONE jitter draw per ingested packet, made here on the event-loop thread
  // before any fan-out work: all forwarded copies of this packet share the
  // candidate departure time (per-destination FIFO floors still apply on
  // top). This models relay processing delay as a property of the ingest
  // pipeline rather than of each egress copy, and it is the dominant
  // per-packet cost saving: a per-copy draw would pay an exponential (a
  // log()) for every one of the N−1 copies.
  const SimTime candidate = departure_candidate();

  // Control packets (e.g. receiver reports) are routed to the participant
  // the report concerns (pkt.origin_id), not fanned out.
  if (pkt.kind == net::StreamKind::kControl) {
    for (auto& p : meeting.participants) {
      if (p.id != pkt.origin_id) continue;
      net::Packet copy = pkt;
      copy.dst = p.endpoint;
      send_with_candidate(std::move(copy), p.departure, candidate);
      ++stats_.control_forwarded;
      if (m_control_forwarded_) m_control_forwarded_->inc();
      return;
    }
    if (!from_peer) {
      for (PeerLink& pl : meeting.peers) {
        net::Packet copy = pkt;
        copy.dst = pl.relay->endpoint();
        copy.meeting = meeting.id;
        send_with_candidate(std::move(copy), pl.departure, candidate);
        ++stats_.control_forwarded;
        if (m_control_forwarded_) m_control_forwarded_->inc();
      }
    }
    return;
  }

  const std::int64_t media_copies = fan_out_media(meeting, pkt, candidate);
  stats_.media_forwarded += media_copies;
  if (tracer_ != nullptr) {
    // Ingest → shared candidate departure tick: the relay's processing
    // pipeline window for this packet, annotated with the fan-out width.
    tracer_->span("relay.ingest", network_.now(), candidate, static_cast<double>(media_copies));
  }

  // Fan out to peer front-ends exactly once (only for first-hop packets).
  // Peer forwards are a different beast from participant copies — one link
  // carries the whole meeting onward — so they are counted separately and
  // excluded from the per-receiver fan_out distribution.
  std::int64_t peer_copies = 0;
  if (!from_peer) {
    for (PeerLink& pl : meeting.peers) {
      net::Packet copy = pkt;
      copy.dst = pl.relay->endpoint();
      copy.meeting = meeting.id;
      send_with_candidate(std::move(copy), pl.departure, candidate);
      ++peer_copies;
    }
    stats_.peer_forwarded += peer_copies;
  }

  if (m_media_forwarded_) m_media_forwarded_->add(media_copies);
  if (m_peer_forwarded_ && peer_copies > 0) m_peer_forwarded_->add(peer_copies);
  if (m_fan_out_) m_fan_out_->observe(static_cast<double>(media_copies));
}

}  // namespace vc::platform
