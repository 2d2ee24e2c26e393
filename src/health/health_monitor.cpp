#include "health/health_monitor.h"

#include <stdexcept>

#include "common/json.h"

namespace vc::health {
namespace {

const char* op_name(SloRule::Op op) {
  switch (op) {
    case SloRule::Op::kLe: return "<=";
    case SloRule::Op::kLt: return "<";
    case SloRule::Op::kGe: return ">=";
    case SloRule::Op::kGt: return ">";
    case SloRule::Op::kEq: return "==";
    case SloRule::Op::kNe: return "!=";
  }
  return "?";
}

const char* field_name(SloRule::Field field) {
  switch (field) {
    case SloRule::Field::kValue: return "value";
    case SloRule::Field::kDelta: return "delta";
    case SloRule::Field::kMean: return "mean";
    case SloRule::Field::kMax: return "max";
    case SloRule::Field::kCount: return "count";
  }
  return "?";
}

bool compare(double observed, SloRule::Op op, double threshold) {
  switch (op) {
    case SloRule::Op::kLe: return observed <= threshold;
    case SloRule::Op::kLt: return observed < threshold;
    case SloRule::Op::kGe: return observed >= threshold;
    case SloRule::Op::kGt: return observed > threshold;
    case SloRule::Op::kEq: return observed == threshold;
    case SloRule::Op::kNe: return observed != threshold;
  }
  return true;
}

/// Events preallocated up front; growth past this allocates (steady state
/// stays allocation-free below it).
constexpr std::size_t kEventReserve = 256;

}  // namespace

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kCritical: return "critical";
  }
  return "?";
}

HealthMonitor::HealthMonitor() { events_.reserve(kEventReserve); }

HealthMonitor& HealthMonitor::add_rule(SloRule rule) {
  if (rule.rule.empty()) throw std::invalid_argument{"slo rule: empty rule name"};
  if (rule.metric.empty()) throw std::invalid_argument{"slo rule: empty metric"};
  for (const SloRule& existing : rules_) {
    if (existing.rule == rule.rule) {
      throw std::invalid_argument{"slo rule: duplicate rule name '" + rule.rule + "'"};
    }
  }
  if (rule.min_duration < SimDuration::zero()) rule.min_duration = SimDuration::zero();
  rules_.push_back(std::move(rule));
  states_.emplace_back();
  return *this;
}

void HealthMonitor::bind(MetricsRegistry* registry, Tracer* tracer) {
  tracer_ = tracer;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (registry != nullptr) {
      states_[i].breach_counter = &registry->counter("health." + rules_[i].rule + ".breaches");
    }
    if (tracer != nullptr) {
      states_[i].begin_name = tracer->intern("health.breach_begin." + rules_[i].rule);
      states_[i].end_name = tracer->intern("health.breach_end." + rules_[i].rule);
    }
  }
}

double HealthMonitor::observe(const MetricsTimeline& timeline, const SloRule& rule,
                              bool* found) const {
  *found = true;
  if (const MetricsTimeline::CounterColumn* col = timeline.find_counter(rule.metric)) {
    return rule.field == SloRule::Field::kDelta ? static_cast<double>(col->latest_delta)
                                                : static_cast<double>(col->prev);
  }
  if (const MetricsTimeline::GaugeColumn* col = timeline.find_gauge(rule.metric)) {
    return col->latest;
  }
  if (const MetricsTimeline::HistogramColumn* col = timeline.find_histogram(rule.metric)) {
    switch (rule.field) {
      case SloRule::Field::kDelta: return static_cast<double>(col->latest_count_delta);
      case SloRule::Field::kCount: return static_cast<double>(col->prev_count);
      case SloRule::Field::kMax: return col->latest_max;
      case SloRule::Field::kValue:
      case SloRule::Field::kMean: return col->latest_mean;
    }
  }
  *found = false;
  return 0.0;
}

void HealthMonitor::on_sample(const MetricsTimeline& timeline, SimTime at) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    RuleState& state = states_[i];
    bool found = false;
    const double observed = observe(timeline, rule, &found);
    state.last_observed = observed;
    // A metric with no column yet counts as healthy: rules may be declared
    // before their instruments first fire.
    const bool healthy = !found || compare(observed, rule.op, rule.threshold);
    if (healthy) {
      if (state.open) {
        state.open = false;
        emit(i, /*begin=*/false, at, observed);
      }
      state.failing = false;
      continue;
    }
    if (!state.failing) {
      state.failing = true;
      state.failing_since_us = at.micros();
    }
    // Edge-triggered: `open` guards against a duplicate breach-begin while
    // the condition keeps failing sample after sample.
    if (!state.open && SimDuration{at.micros() - state.failing_since_us} >= rule.min_duration) {
      state.open = true;
      ++state.breaches;
      if (state.breach_counter != nullptr) state.breach_counter->inc();
      emit(i, /*begin=*/true, at, observed);
    }
  }
}

void HealthMonitor::on_finalize(const MetricsTimeline& timeline, SimTime at) {
  (void)timeline;
  // A breach spanning the session's end closes cleanly at the last sample.
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    RuleState& state = states_[i];
    if (!state.open) continue;
    state.open = false;
    emit(i, /*begin=*/false, at, state.last_observed);
  }
}

void HealthMonitor::emit(std::size_t rule_index, bool begin, SimTime at, double observed) {
  HealthEvent event;
  event.rule_index = static_cast<std::uint32_t>(rule_index);
  event.begin = begin;
  event.severity = rules_[rule_index].severity;
  event.at = at;
  event.observed = observed;
  events_.push_back(event);
  const RuleState& state = states_[rule_index];
  if (tracer_ != nullptr) {
    const char* name = begin ? state.begin_name : state.end_name;
    if (name != nullptr) tracer_->instant(name, at, observed);
  }
}

std::uint64_t HealthMonitor::total_breaches() const {
  std::uint64_t total = 0;
  for (const RuleState& state : states_) total += state.breaches;
  return total;
}

std::size_t HealthMonitor::open_breaches() const {
  std::size_t open = 0;
  for (const RuleState& state : states_) open += state.open ? 1 : 0;
  return open;
}

std::string HealthMonitor::to_json() const {
  std::string out = "{\"rules\":[";
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    if (i) out += ",";
    out += "{\"rule\":\"";
    json::append_escaped(out, rule.rule);
    out += "\",\"metric\":\"";
    json::append_escaped(out, rule.metric);
    out += "\",\"field\":\"";
    out += field_name(rule.field);
    out += "\",\"op\":\"";
    out += op_name(rule.op);
    out += "\",\"threshold\":" + json::format_number(rule.threshold);
    out += ",\"severity\":\"";
    out += severity_name(rule.severity);
    out += "\",\"min_duration_ms\":" + json::format_number(rule.min_duration.millis());
    out += "}";
  }
  out += "],\"events\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const HealthEvent& event = events_[i];
    if (i) out += ",";
    out += "{\"rule\":\"";
    json::append_escaped(out, rules_[event.rule_index].rule);
    out += "\",\"type\":\"";
    out += event.begin ? "begin" : "end";
    out += "\",\"severity\":\"";
    out += severity_name(event.severity);
    out += "\",\"ts_us\":" + std::to_string(event.at.micros());
    out += ",\"value\":" + json::format_number(event.observed);
    out += "}";
  }
  out += "],\"breaches\":{";
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (i) out += ",";
    out += "\"";
    json::append_escaped(out, rules_[i].rule);
    out += "\":" + std::to_string(states_[i].breaches);
  }
  out += "}}";
  return out;
}

std::string HealthMonitor::rules_to_json() const {
  std::string out = "{\n  \"slo_rules\": [\n";
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    out += "    {\"rule\": \"";
    json::append_escaped(out, rule.rule);
    out += "\", \"metric\": \"";
    json::append_escaped(out, rule.metric);
    out += "\", \"field\": \"";
    out += field_name(rule.field);
    out += "\", \"op\": \"";
    out += op_name(rule.op);
    out += "\", \"threshold\": " + json::format_number(rule.threshold);
    out += ", \"severity\": \"";
    out += severity_name(rule.severity);
    out += "\", \"min_duration_ms\": " + json::format_number(rule.min_duration.millis());
    out += i + 1 < rules_.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::vector<SloRule> HealthMonitor::rules_from_json(const std::string& text) {
  const json::Value root = json::parse(text);
  const json::Value* list = root.is_array() ? &root : root.find("slo_rules");
  if (list == nullptr || !list->is_array()) {
    throw std::runtime_error{"slo rules JSON: expected a \"slo_rules\" array"};
  }
  // Reuse add_rule()'s validation (name uniqueness included) by staging the
  // parsed rules through a throwaway monitor.
  HealthMonitor staging;
  for (const json::Value& item : list->array_items) {
    if (!item.is_object()) throw std::runtime_error{"slo rules JSON: rule is not an object"};
    SloRule rule;
    rule.rule = item.at("rule").as_string();
    rule.metric = item.at("metric").as_string();
    const json::Value* field = item.find("field");
    if (field != nullptr) {
      const std::string& name = field->as_string();
      if (name == "value") rule.field = SloRule::Field::kValue;
      else if (name == "delta") rule.field = SloRule::Field::kDelta;
      else if (name == "mean") rule.field = SloRule::Field::kMean;
      else if (name == "max") rule.field = SloRule::Field::kMax;
      else if (name == "count") rule.field = SloRule::Field::kCount;
      else throw std::runtime_error{"slo rules JSON: unknown field '" + name + "'"};
    }
    const std::string& op = item.at("op").as_string();
    if (op == "<=") rule.op = SloRule::Op::kLe;
    else if (op == "<") rule.op = SloRule::Op::kLt;
    else if (op == ">=") rule.op = SloRule::Op::kGe;
    else if (op == ">") rule.op = SloRule::Op::kGt;
    else if (op == "==") rule.op = SloRule::Op::kEq;
    else if (op == "!=") rule.op = SloRule::Op::kNe;
    else throw std::runtime_error{"slo rules JSON: unknown op '" + op + "'"};
    rule.threshold = item.at("threshold").as_number();
    const json::Value* severity = item.find("severity");
    if (severity != nullptr) {
      const std::string& name = severity->as_string();
      if (name == "info") rule.severity = Severity::kInfo;
      else if (name == "warning") rule.severity = Severity::kWarning;
      else if (name == "critical") rule.severity = Severity::kCritical;
      else throw std::runtime_error{"slo rules JSON: unknown severity '" + name + "'"};
    }
    if (const json::Value* v = item.find("min_duration_ms")) {
      rule.min_duration = checked_millis_f(v->as_number(), "slo rules JSON: min_duration_ms");
    }
    try {
      staging.add_rule(std::move(rule));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error{std::string("slo rules JSON: ") + e.what()};
    }
  }
  return staging.rules_;
}

}  // namespace vc::health
