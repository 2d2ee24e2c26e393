#include "abr/abr.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace vc::abr {
namespace {

// Buffer/backlog adapter (kBuffer).
/// Queue-delay at/below which the adapter probes one tier up (ms).
constexpr double kLowDelayMs = 25.0;
/// Queue-delay at/above which the adapter collapses to the bottom tier.
constexpr double kHighDelayMs = 220.0;

// Throughput-EWMA adapter (kThroughput) and MPC prediction safety.
constexpr double kEwmaAlpha = 0.3;
/// Fraction of predicted throughput an adapter will commit to.
constexpr double kSafety = 0.85;

// MPC adapter (kMpc).
constexpr int kMpcHorizon = 3;
/// Utility cost per tier step changed between consecutive rounds.
constexpr double kSwitchPenalty = 0.15;
/// Utility cost per unit of predicted over-subscription (rate beyond
/// safety × predicted throughput, relative to the prediction).
constexpr double kOverusePenalty = 4.0;

/// Delivered throughput of one observation window, in bits per second.
/// Windows too short to measure return `fallback` (the previous estimate).
double window_throughput_bps(const AbrObservation& obs, double fallback) {
  if (obs.window_seconds <= 1e-6) return fallback;
  return static_cast<double>(obs.delivered_bytes) * 8.0 / obs.window_seconds;
}

/// Backlog/queue-delay driven adapter (BBA spirit, inverted for a sender):
/// the shared queue standing in front of the receiver plays the role of the
/// playout buffer. Low queue delay = headroom, probe one tier up; high queue
/// delay = the bottleneck is filling on our account, back off — linearly down
/// the ladder between the two thresholds, straight to the floor above them.
class BufferAbr final : public AbrAlgo {
 public:
  explicit BufferAbr(TierLadder ladder) : AbrAlgo(std::move(ladder), "buffer") {}

  AbrDecision select(const AbrObservation& obs) override {
    // Frames stuck in flight count against the delay signal: each backlogged
    // frame is roughly one frame interval of extra queue.
    const double signal =
        obs.queue_delay_ms + 33.0 * static_cast<double>(std::max<std::int64_t>(
                                        0, obs.backlog_frames - 1));
    const int top = ladder_.size() - 1;
    int target;
    if (signal <= kLowDelayMs) {
      target = top;
    } else if (signal >= kHighDelayMs) {
      target = 0;
    } else {
      // 1 at low, 0 at high.
      const double f = (kHighDelayMs - signal) / (kHighDelayMs - kLowDelayMs);
      target = static_cast<int>(std::floor(f * static_cast<double>(top)));
    }
    // Severe loss is a queue signal the delay estimate may lag: cap climbs.
    if (obs.loss_fraction > 0.25 && last_tier_ >= 0) target = std::min(target, last_tier_);
    // Climb gently: one tier per round once adapting, and never past the
    // platform's pushed target on the very first decision.
    const int climb_cap =
        last_tier_ < 0 ? ladder_.nearest(obs.platform_target) : last_tier_ + 1;
    return decide(std::min(target, climb_cap));
  }
};

/// Throughput-predictive adapter: EWMA of delivered throughput, discounted by
/// observed loss, then the highest tier fitting under safety × prediction.
class ThroughputAbr final : public AbrAlgo {
 public:
  explicit ThroughputAbr(TierLadder ladder) : AbrAlgo(std::move(ladder), "throughput") {}

  AbrDecision select(const AbrObservation& obs) override {
    const double measured = window_throughput_bps(obs, estimate_bps_);
    if (measured > 0.0) {
      estimate_bps_ = estimate_bps_ <= 0.0
                          ? measured
                          : kEwmaAlpha * measured + (1.0 - kEwmaAlpha) * estimate_bps_;
    }
    double usable = estimate_bps_ * kSafety;
    // Loss means the delivered estimate already flatters the path: haircut.
    if (obs.loss_fraction > 0.0) usable *= std::max(0.25, 1.0 - obs.loss_fraction);
    if (usable <= 0.0) {
      // Nothing measured yet: follow the platform's pushed target.
      return decide(ladder_.nearest(obs.platform_target));
    }
    return decide(ladder_.highest_within(
        DataRate::bps(static_cast<std::int64_t>(usable))));
  }

  void reset() override {
    AbrAlgo::reset();
    estimate_bps_ = 0.0;
  }

 private:
  double estimate_bps_ = 0.0;
};

/// MPC-style lookahead: harmonic-mean throughput prediction over the recent
/// windows, then exhaustive search over tier plans of length kMpcHorizon
/// maximizing Σ [log-quality − switch penalty − over-subscription penalty].
/// Only the plan's first step is applied (receding horizon). The ladder is
/// small (≤ 8 rungs) and the horizon short, so the search is a few hundred
/// candidate plans per feedback report.
class MpcAbr final : public AbrAlgo {
 public:
  explicit MpcAbr(TierLadder ladder) : AbrAlgo(std::move(ladder), "mpc") {}

  AbrDecision select(const AbrObservation& obs) override {
    const double measured = window_throughput_bps(obs, 0.0);
    if (measured > 0.0) {
      history_.push_back(measured);
      if (history_.size() > kHistory) history_.pop_front();
    }
    if (history_.empty()) return decide(ladder_.nearest(obs.platform_target));

    // Harmonic mean under-weights optimistic spikes (robust MPC prediction).
    double inv_sum = 0.0;
    for (const double t : history_) inv_sum += 1.0 / t;
    const double predicted = static_cast<double>(history_.size()) / inv_sum;
    const double usable = predicted * kSafety *
                          (obs.loss_fraction > 0.0
                               ? std::max(0.25, 1.0 - obs.loss_fraction)
                               : 1.0);

    const int first = best_first_step(usable);
    return decide(first);
  }

  void reset() override {
    AbrAlgo::reset();
    history_.clear();
  }

 private:
  static constexpr std::size_t kHistory = 5;

  double step_utility(int tier, int prev_tier, double usable_bps) const {
    const double rate = static_cast<double>(ladder_.at(tier).rate.bits_per_second());
    const double floor = static_cast<double>(ladder_.min_rate().bits_per_second());
    double u = std::log(rate / floor + 1.0);
    if (prev_tier >= 0) u -= kSwitchPenalty * static_cast<double>(std::abs(tier - prev_tier));
    if (usable_bps > 0.0 && rate > usable_bps) {
      u -= kOverusePenalty * (rate - usable_bps) / usable_bps;
    }
    return u;
  }

  /// Depth-first enumeration of tier plans; returns the best plan's first
  /// tier. Ties resolve to the lowest tier (iteration ascends, strict >).
  int best_first_step(double usable_bps) const {
    int best_first = 0;
    double best_value = -1e300;
    struct Frame {
      int depth;
      int prev;
      double value;
      int first;
    };
    std::vector<Frame> stack;
    stack.push_back({0, last_tier_, 0.0, -1});
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      if (f.depth == kMpcHorizon) {
        if (f.value > best_value) {
          best_value = f.value;
          best_first = f.first;
        }
        continue;
      }
      // Push descending so ascending tiers are *popped* first, keeping the
      // lowest-tier-wins tie-break of the recursive formulation.
      for (int t = ladder_.size() - 1; t >= 0; --t) {
        stack.push_back({f.depth + 1, t, f.value + step_utility(t, f.prev, usable_bps),
                         f.depth == 0 ? t : f.first});
      }
    }
    return best_first;
  }

  std::deque<double> history_;
};

}  // namespace

std::string_view abr_kind_name(AbrKind kind) {
  switch (kind) {
    case AbrKind::kNone: return "none";
    case AbrKind::kBuffer: return "buffer";
    case AbrKind::kThroughput: return "throughput";
    case AbrKind::kMpc: return "mpc";
  }
  return "?";
}

std::unique_ptr<AbrAlgo> make_abr(const AbrConfig& config, TierLadder ladder) {
  if (config.kind == AbrKind::kNone) return nullptr;
  if (ladder.empty()) throw std::invalid_argument{"abr: empty tier ladder"};
  switch (config.kind) {
    case AbrKind::kBuffer: return std::make_unique<BufferAbr>(std::move(ladder));
    case AbrKind::kThroughput:
      return std::make_unique<ThroughputAbr>(std::move(ladder));
    case AbrKind::kMpc: return std::make_unique<MpcAbr>(std::move(ladder));
    case AbrKind::kNone: break;
  }
  return nullptr;
}

}  // namespace vc::abr
