// Declarative SLO health rules evaluated against MetricsTimeline snapshots.
//
// A HealthMonitor holds a list of SloRules — "this session is healthy while
// `metric` <op> `threshold`" — and, attached as the timeline's Observer,
// re-evaluates every rule after each periodic sample. Rule transitions are
// edge-triggered: one breach-begin event when the healthy condition first
// fails (optionally only after failing for `min_duration`), one breach-end
// when it holds again, and finalize() closes any breach still open when the
// session ends. Breach edges also fan out to the optional bindings: a tracer
// instant per edge and a `health.<rule>.breaches` registry counter per begin,
// so breaches land in run reports through the normal metrics reduction.
//
// Determinism contract (same as fault::FaultPlan): evaluation draws zero
// randomness and reads only snapshot state, so a monitored run's event list
// is byte-identical at any thread count × fleet size — and a monitor armed with
// zero rules observes without emitting anything, leaving every exported byte
// identical to an unmonitored run (checked by the test
// HealthMonitor.ArmedEmptyMonitorLeavesTimelineBytesIdentical).
//
// Rules load from JSON like fault plans do:
//   {"slo_rules": [{"rule": "reconnect-steady", "metric": "client.reconnects",
//                   "field": "delta", "op": "==", "threshold": 0,
//                   "severity": "warning", "min_duration_ms": 0}, ...]}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/metrics_timeline.h"
#include "common/time.h"
#include "common/tracer.h"

namespace vc::health {

enum class Severity : std::uint8_t { kInfo = 0, kWarning = 1, kCritical = 2 };
const char* severity_name(Severity severity);

struct SloRule {
  /// Unique id; names the breach counter (`health.<rule>.breaches`) and the
  /// tracer instants.
  std::string rule;
  /// Registry instrument name; resolved against the timeline's columns as
  /// counter, then gauge, then histogram. A metric that never appears simply
  /// never breaches (rules may predate their instruments).
  std::string metric;

  /// Which facet of the instrument the rule watches.
  enum class Field : std::uint8_t {
    kValue,  // counter: cumulative; gauge: current value; histogram: running mean
    kDelta,  // counter / histogram count: change since the previous sample
    kMean,   // histogram running mean
    kMax,    // histogram running max
    kCount,  // histogram cumulative observation count
  };
  Field field = Field::kValue;

  /// Healthy while `observed <op> threshold`; a breach is the condition
  /// going false.
  enum class Op : std::uint8_t { kLe, kLt, kGe, kGt, kEq, kNe };
  Op op = Op::kLe;
  double threshold = 0.0;
  Severity severity = Severity::kWarning;
  /// The condition must fail for at least this long (consecutive samples)
  /// before breach-begin fires; zero fires on the first failing sample.
  SimDuration min_duration{};
};

/// One breach edge. Stores the rule by index (not name) so appending an
/// event allocates nothing once the event vector's reserve is in place.
struct HealthEvent {
  std::uint32_t rule_index = 0;
  bool begin = false;  // true: breach-begin; false: breach-end
  Severity severity = Severity::kWarning;
  SimTime at{};
  double observed = 0.0;
};

class HealthMonitor final : public MetricsTimeline::Observer {
 public:
  HealthMonitor();

  /// Validates (non-empty unique rule name, non-empty metric) and registers;
  /// throws std::invalid_argument on a bad rule. Add rules before sampling
  /// starts.
  HealthMonitor& add_rule(SloRule rule);
  const std::vector<SloRule>& rules() const { return rules_; }
  bool empty() const { return rules_.empty(); }

  /// Optional sinks, bound once before sampling (off the hot path: breach
  /// counters and tracer names resolve/intern here, not per event). Either
  /// pointer may be null.
  void bind(MetricsRegistry* registry, Tracer* tracer);

  // MetricsTimeline::Observer:
  void on_sample(const MetricsTimeline& timeline, SimTime at) override;
  void on_finalize(const MetricsTimeline& timeline, SimTime at) override;

  const std::vector<HealthEvent>& events() const { return events_; }
  std::uint64_t breaches(std::size_t rule_index) const { return states_[rule_index].breaches; }
  std::uint64_t total_breaches() const;
  /// Breaches begun but not yet ended (0 after finalize).
  std::size_t open_breaches() const;

  /// Deterministic JSON object:
  ///   {"rules":[{rule fields},..],
  ///    "events":[{"rule","type":"begin"|"end","severity","ts_us","value"},..],
  ///    "breaches":{"<rule>":count,..}}
  std::string to_json() const;
  /// The {"slo_rules":[...]} exchange format (round-trips through
  /// rules_from_json).
  std::string rules_to_json() const;
  /// Throws std::runtime_error on malformed JSON, an unknown op/field/
  /// severity, or a rule that fails add_rule() validation.
  static std::vector<SloRule> rules_from_json(const std::string& text);

 private:
  struct RuleState {
    bool failing = false;  // condition false at the latest sample
    bool open = false;     // breach-begin emitted, no end yet
    std::int64_t failing_since_us = 0;
    double last_observed = 0.0;
    std::uint64_t breaches = 0;
    MetricsRegistry::Counter* breach_counter = nullptr;  // bound registry sink
    const char* begin_name = nullptr;                    // interned tracer names
    const char* end_name = nullptr;
  };

  /// Reads the rule's facet from the timeline's latest snapshot; sets
  /// `*found` false (and returns 0) when the metric has no column yet.
  /// Never allocates.
  double observe(const MetricsTimeline& timeline, const SloRule& rule, bool* found) const;
  void emit(std::size_t rule_index, bool begin, SimTime at, double observed);

  std::vector<SloRule> rules_;
  std::vector<RuleState> states_;
  std::vector<HealthEvent> events_;
  Tracer* tracer_ = nullptr;
};

}  // namespace vc::health
