// Pluggable client-side rate adaptation (ABR), in the spirit of puffer's
// ABRAlgo interface.
//
// The platforms own their measured rate policy (src/platform/rate_policy.*):
// the server pushes a target and the client follows it, which is what the
// paper could observe from outside. This module opens the counterfactual the
// follow-on literature asks about (MacMillan et al., arXiv 2105.13478): what
// if the *client* chose its encode tier from acked-chunk feedback — delivered
// bytes, inter-ack spacing, loss, a queue-delay signal — the way DASH players
// do? An AbrAlgo picks a tier from the platform's tier ladder; the VcaClient
// then encodes at that tier instead of the platform-pushed rate.
//
// Determinism contract: adapters are pure state machines over their
// observations. They own no RNG and never draw from one, so an attached
// adapter perturbs nothing outside the rates it chooses. An adapter is off
// (kNone: none is built, and the client follows the platform's push) or
// applied.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "common/units.h"

namespace vc::abr {

/// One rung of a platform's simulcast/encode ladder: a codec target bitrate
/// and the frame height it would carry at that budget.
struct Tier {
  DataRate rate;
  int height = 0;
};

/// The discrete set of encode operating points available to a client,
/// ascending by rate. Built from a platform's measured rate profile by
/// platform::tier_ladder() (rate_policy.cpp).
struct TierLadder {
  std::vector<Tier> tiers;

  int size() const { return static_cast<int>(tiers.size()); }
  bool empty() const { return tiers.empty(); }
  const Tier& at(int i) const { return tiers[static_cast<std::size_t>(clamp(i))]; }
  DataRate min_rate() const { return tiers.front().rate; }
  DataRate max_rate() const { return tiers.back().rate; }

  /// Clamps a tier index into the ladder.
  int clamp(int i) const {
    if (i < 0) return 0;
    if (i >= size()) return size() - 1;
    return i;
  }

  /// Highest tier whose rate does not exceed `budget`; 0 if even the lowest
  /// tier is above it (a client must always send *something*).
  int highest_within(DataRate budget) const {
    int best = 0;
    for (int i = 0; i < size(); ++i) {
      if (tiers[static_cast<std::size_t>(i)].rate <= budget) best = i;
    }
    return best;
  }

  /// Tier whose rate is nearest `rate` (ties resolve downward).
  int nearest(DataRate rate) const {
    int best = 0;
    std::int64_t best_err = INT64_MAX;
    for (int i = 0; i < size(); ++i) {
      const std::int64_t err =
          std::abs(tiers[static_cast<std::size_t>(i)].rate.bits_per_second() -
                   rate.bits_per_second());
      if (err < best_err) {
        best_err = err;
        best = i;
      }
    }
    return best;
  }
};

/// Acked-chunk feedback for one adaptation round, assembled by the sending
/// client from the receiver's periodic report (client::AbrFeedback).
struct AbrObservation {
  SimTime now{};
  /// Length of the feedback window the counters below cover.
  double window_seconds = 0.0;
  /// Payload bytes of this sender's media the receiver acknowledged in the
  /// window — the delivered-throughput numerator.
  std::int64_t delivered_bytes = 0;
  /// Mean spacing between acked media packets in the window (ms).
  double inter_ack_ms = 0.0;
  /// Fraction of frames the receiver saw start but never complete.
  double loss_fraction = 0.0;
  /// Self-inflicted queuing signal: the receiver's mean one-way delay in the
  /// window minus its session-minimum baseline (ms). Grows when this flow
  /// (or a competitor) is filling the bottleneck queue.
  double queue_delay_ms = 0.0;
  /// Frames in flight at the receiver (seen but incomplete) at report time.
  std::int64_t backlog_frames = 0;
  /// What the platform's pushed policy would have the client encode at.
  DataRate platform_target;
  /// The target currently applied by the encoder.
  DataRate current_target;
};

/// The adapter's choice: a ladder tier and its codec target bitrate.
struct AbrDecision {
  int tier = 0;
  DataRate target;
  int height = 0;
};

/// Strategy interface. select() is called once per receiver feedback report;
/// implementations keep whatever state they need but must stay deterministic
/// functions of their observation history (no RNG, no wall clock).
class AbrAlgo {
 public:
  virtual ~AbrAlgo() = default;
  virtual AbrDecision select(const AbrObservation& obs) = 0;
  /// Drops adaptation state (e.g. across a reconnect); the ladder stays.
  virtual void reset() { last_tier_ = -1; }

  std::string_view name() const { return name_; }
  const TierLadder& ladder() const { return ladder_; }
  /// Most recent decision's tier; -1 before the first select().
  int last_tier() const { return last_tier_; }

 protected:
  AbrAlgo(TierLadder ladder, std::string name)
      : ladder_(std::move(ladder)), name_(std::move(name)) {}

  /// Clamps `tier` into the ladder, records it, and builds the decision.
  AbrDecision decide(int tier) {
    last_tier_ = ladder_.clamp(tier);
    const Tier& t = ladder_.at(last_tier_);
    return AbrDecision{last_tier_, t.rate, t.height};
  }

  TierLadder ladder_;
  std::string name_;
  int last_tier_ = -1;
};

enum class AbrKind : std::uint8_t { kNone = 0, kBuffer = 1, kThroughput = 2, kMpc = 3 };

std::string_view abr_kind_name(AbrKind kind);

/// Construction knobs for the bundled adapters. Everything is deterministic;
/// the adapters' tuning constants (abr.cpp) suit the 500 ms feedback cadence
/// of VcaClient.
struct AbrConfig {
  AbrKind kind = AbrKind::kNone;
};

/// Factory for the bundled adapters; nullptr for kNone. The ladder must be
/// non-empty for any other kind (throws std::invalid_argument).
std::unique_ptr<AbrAlgo> make_abr(const AbrConfig& config, TierLadder ladder);

}  // namespace vc::abr
