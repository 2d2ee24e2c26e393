// One-way delay models for the simulated internet.
//
// The paper's lag findings (Figs 4–11) are driven by geography: relays in
// US-east penalize US-west and European clients by roughly the propagation
// delta. GeoLatencyModel reproduces that geometry; FixedLatencyModel supports
// unit tests with exact, hand-chosen delays.
#pragma once

#include <memory>
#include <unordered_map>
#include <utility>

#include "common/geo.h"
#include "common/rng.h"
#include "common/time.h"

namespace vc::net {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  /// Samples the one-way delay for a single packet between two locations.
  virtual SimDuration one_way(const GeoPoint& from, const GeoPoint& to, Rng& rng) const = 0;
  /// Deterministic expected delay (no jitter), used by infrastructure
  /// placement policies that "know" topology, never by measurement code.
  virtual SimDuration expected_one_way(const GeoPoint& from, const GeoPoint& to) const = 0;
};

/// Great-circle propagation with routing inflation, a distance-independent
/// base (last-mile + processing), and additive positive jitter.
class GeoLatencyModel final : public LatencyModel {
 public:
  struct Params {
    double jitter_mean_ms = 0.3;  // exponential jitter mean
  };

  GeoLatencyModel();  // defaults; defined below (Params incomplete here)
  explicit GeoLatencyModel(Params p) : p_(p) {}

  SimDuration one_way(const GeoPoint& from, const GeoPoint& to, Rng& rng) const override {
    return expected_one_way(from, to) + millis_f(rng.exponential(p_.jitter_mean_ms));
  }

  SimDuration expected_one_way(const GeoPoint& from, const GeoPoint& to) const override {
    return propagation_delay(from, to, kInflation, kBase);
  }

 private:
  static constexpr double kInflation = 1.8;            // routing stretch over great circle
  static constexpr SimDuration kBase = millis_f(1.0);  // per-path fixed overhead

  Params p_;
};

inline GeoLatencyModel::GeoLatencyModel() : p_(Params{}) {}

/// Constant delay regardless of location; for tests.
class FixedLatencyModel final : public LatencyModel {
 public:
  explicit FixedLatencyModel(SimDuration d) : d_(d) {}
  SimDuration one_way(const GeoPoint&, const GeoPoint&, Rng&) const override { return d_; }
  SimDuration expected_one_way(const GeoPoint&, const GeoPoint&) const override { return d_; }

 private:
  SimDuration d_;
};

}  // namespace vc::net
