#include "fault/fault_plan.h"

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/json.h"
#include "net/loss.h"
#include "net/network.h"
#include "net/shaper.h"
#include "platform/base_platform.h"

namespace vc::fault {

namespace {

net::Host* find_host(net::Network& network, const std::string& name) {
  for (const auto& h : network.hosts()) {
    if (h->name() == name) return h.get();
  }
  return nullptr;
}

/// Link actions need a shaper to act on; unshaped targets get an unlimited
/// one installed at arm time (observability auto-wires via
/// set_ingress_shaper), so the action itself is a pure pointer call.
net::Host* resolve_link_target(const FaultPlan::Bindings& b, const std::string& name) {
  if (b.network == nullptr) throw std::invalid_argument{"fault plan: no network bound"};
  net::Host* host = find_host(*b.network, name);
  if (host == nullptr) throw std::invalid_argument{"fault plan: unknown host '" + name + "'"};
  if (host->ingress_shaper() == nullptr) {
    host->set_ingress_shaper(std::make_unique<net::TokenBucketShaper>(
        b.network->loop(), DataRate::unlimited()));
  }
  return host;
}

const char* kind_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kLinkRate: return "link_rate";
    case FaultEvent::Kind::kLinkRamp: return "link_ramp";
    case FaultEvent::Kind::kLinkOutage: return "link_outage";
    case FaultEvent::Kind::kBurstLoss: return "burst_loss";
    case FaultEvent::Kind::kRelayCrash: return "relay_crash";
  }
  return "unknown";
}

}  // namespace

FaultPlan& FaultPlan::link_rate(SimDuration at, std::string host, DataRate rate) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kLinkRate;
  e.at = at;
  e.host = std::move(host);
  e.rate = rate;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::link_ramp(SimDuration at, std::string host, DataRate from, DataRate to,
                                SimDuration over, int steps) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kLinkRamp;
  e.at = at;
  e.host = std::move(host);
  e.rate = from;
  e.rate_end = to;
  e.duration = over;
  e.steps = steps < 1 ? 1 : steps;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::link_outage(SimDuration at, std::string host, SimDuration duration) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kLinkOutage;
  e.at = at;
  e.host = std::move(host);
  e.duration = duration;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::burst_loss(SimDuration at, double average, double mean_burst,
                                 std::string host) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kBurstLoss;
  e.at = at;
  e.host = std::move(host);
  e.loss_average = average;
  e.mean_burst = mean_burst;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::relay_crash(SimDuration at, std::size_t relay_index,
                                  SimDuration down_for, SimDuration detection) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kRelayCrash;
  e.at = at;
  e.relay_index = relay_index;
  e.duration = down_for;
  e.detection = detection;
  events_.push_back(std::move(e));
  return *this;
}

void FaultPlan::arm(const Bindings& b, SimTime origin) const {
  if (events_.empty()) return;  // an empty plan compiles to nothing at all
  if (b.network == nullptr) throw std::invalid_argument{"fault plan: no network bound"};
  net::EventLoop& loop = b.network->loop();
  MetricsRegistry* metrics = b.network->instruments().metrics;
  Tracer* tracer = b.network->instruments().tracer;

  for (const FaultEvent& e : events_) {
    const SimTime when = origin + e.at;
    switch (e.kind) {
      case FaultEvent::Kind::kLinkRate: {
        net::Host* host = resolve_link_target(b, e.host);
        const DataRate rate = e.rate;
        loop.schedule_at(when, [host, rate, metrics, tracer, &loop] {
          if (auto* sh = host->ingress_shaper()) sh->set_rate(rate);
          if (metrics) metrics->counter("fault.link_rate_changes").inc();
          if (tracer) tracer->instant("fault.link_rate", loop.now(), rate.as_kbps());
        });
        break;
      }
      case FaultEvent::Kind::kLinkRamp: {
        net::Host* host = resolve_link_target(b, e.host);
        // Compiled into `steps` equal rate steps ending at rate_end; step 0
        // (the start rate) fires at `at` so the ramp's shape is explicit.
        const std::int64_t from = e.rate.bits_per_second();
        const std::int64_t to = e.rate_end.bits_per_second();
        for (int i = 0; i <= e.steps; ++i) {
          const DataRate rate =
              DataRate::bps(from + (to - from) * static_cast<std::int64_t>(i) / e.steps);
          const SimTime tick = when + e.duration * static_cast<std::int64_t>(i) /
                                          static_cast<std::int64_t>(e.steps);
          loop.schedule_at(tick, [host, rate, metrics, tracer, &loop] {
            if (auto* sh = host->ingress_shaper()) sh->set_rate(rate);
            if (metrics) metrics->counter("fault.link_rate_changes").inc();
            if (tracer) tracer->instant("fault.link_rate", loop.now(), rate.as_kbps());
          });
        }
        break;
      }
      case FaultEvent::Kind::kLinkOutage: {
        net::Host* host = resolve_link_target(b, e.host);
        loop.schedule_at(when, [host, metrics, tracer, &loop] {
          if (auto* sh = host->ingress_shaper()) sh->set_down(true);
          if (metrics) metrics->counter("fault.outages").inc();
          if (tracer) tracer->instant("fault.outage_begin", loop.now(), 0.0);
        });
        loop.schedule_at(when + e.duration, [host, tracer, &loop] {
          if (auto* sh = host->ingress_shaper()) sh->set_down(false);
          if (tracer) tracer->instant("fault.outage_end", loop.now(), 0.0);
        });
        break;
      }
      case FaultEvent::Kind::kBurstLoss: {
        // Validate the Gilbert–Elliott targets now: a bad plan should fail
        // at arm time, not half-way through a run.
        (void)net::GilbertElliottLoss::with_average(e.loss_average, e.mean_burst);
        net::Host* host = e.host.empty() ? nullptr : resolve_link_target(b, e.host);
        net::Network* network = b.network;
        const double average = e.loss_average;
        const double mean_burst = e.mean_burst;
        loop.schedule_at(when, [host, network, average, mean_burst, metrics, tracer, &loop] {
          auto model = std::make_unique<net::GilbertElliottLoss>(
              net::GilbertElliottLoss::with_average(average, mean_burst));
          if (host != nullptr) {
            host->set_ingress_loss(std::move(model));
          } else {
            network->set_loss_model(std::move(model));
          }
          if (metrics) metrics->counter("fault.burst_loss_installs").inc();
          if (tracer) tracer->instant("fault.burst_loss", loop.now(), average);
        });
        break;
      }
      case FaultEvent::Kind::kRelayCrash: {
        if (b.platform == nullptr) {
          throw std::invalid_argument{"fault plan: relay_crash needs a bound platform"};
        }
        platform::BasePlatform* platform = b.platform;
        const std::size_t index = e.relay_index;
        // Looked up at fire time: the relay may not exist yet when the plan
        // is armed (allocation happens as meetings form).
        loop.schedule_at(when, [platform, index, metrics, tracer, &loop] {
          platform::RelayServer* relay = platform->allocator().relay_at(index);
          if (relay == nullptr || relay->crashed()) return;
          relay->crash();
          if (metrics) metrics->counter("fault.relay_crashes").inc();
          if (tracer) {
            tracer->instant("fault.relay_crash", loop.now(), static_cast<double>(index));
          }
        });
        // Clients notice only after the detection timeout; media sent in
        // that window lands on the dead relay (Stats::crash_dropped). The
        // notification fires even if the relay already restarted — the
        // restarted process lost its forwarding state, so affected clients
        // must re-join either way.
        loop.schedule_at(when + e.detection, [platform, index, tracer, &loop] {
          platform::RelayServer* relay = platform->allocator().relay_at(index);
          if (relay == nullptr) return;
          platform->notify_relay_crashed(relay);
          if (tracer) {
            tracer->instant("fault.relay_crash_detected", loop.now(),
                            static_cast<double>(index));
          }
        });
        loop.schedule_at(when + e.duration, [platform, index, metrics, tracer, &loop] {
          platform::RelayServer* relay = platform->allocator().relay_at(index);
          if (relay == nullptr || !relay->crashed()) return;
          relay->restart();
          if (metrics) metrics->counter("fault.relay_restarts").inc();
          if (tracer) {
            tracer->instant("fault.relay_restart", loop.now(), static_cast<double>(index));
          }
        });
        break;
      }
    }
  }
}

std::string FaultPlan::to_json() const {
  // json::format_fixed, not snprintf %f: the plan file must parse back with
  // from_json regardless of the host's LC_NUMERIC.
  const auto field = [](const char* key, double v, int precision = 3) {
    return std::string(", \"") + key + "\": " + json::format_fixed(v, precision);
  };
  std::string out = "{\n  \"fault_plan\": [\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    out += "    {\"kind\": \"";
    out += kind_name(e.kind);
    out += "\"";
    out += field("at_ms", e.at.millis());
    switch (e.kind) {
      case FaultEvent::Kind::kLinkRate:
        out += ", \"host\": \"" + e.host + "\"" + field("rate_kbps", e.rate.as_kbps());
        break;
      case FaultEvent::Kind::kLinkRamp:
        out += ", \"host\": \"" + e.host + "\"" + field("rate_kbps", e.rate.as_kbps()) +
               field("rate_end_kbps", e.rate_end.as_kbps()) +
               field("duration_ms", e.duration.millis()) +
               ", \"steps\": " + std::to_string(e.steps);
        break;
      case FaultEvent::Kind::kLinkOutage:
        out += ", \"host\": \"" + e.host + "\"" + field("duration_ms", e.duration.millis());
        break;
      case FaultEvent::Kind::kBurstLoss:
        out += ", \"host\": \"" + e.host + "\"" + field("average", e.loss_average, 6) +
               field("mean_burst", e.mean_burst);
        break;
      case FaultEvent::Kind::kRelayCrash:
        out += ", \"relay\": " + std::to_string(e.relay_index) +
               field("duration_ms", e.duration.millis()) +
               field("detection_ms", e.detection.millis());
        break;
    }
    out += i + 1 < events_.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

FaultPlan FaultPlan::from_json(const std::string& text) {
  const json::Value root = json::parse(text);
  const json::Value* list = root.is_array() ? &root : root.find("fault_plan");
  if (list == nullptr || !list->is_array()) {
    throw std::runtime_error{"fault plan JSON: expected a \"fault_plan\" array"};
  }
  FaultPlan plan;
  for (const json::Value& item : list->array_items) {
    if (!item.is_object()) throw std::runtime_error{"fault plan JSON: event is not an object"};
    const std::string kind = item.at("kind").as_string();
    const SimDuration at = millis_f(item.at("at_ms").as_number());
    auto str = [&item](const char* key) {
      const json::Value* v = item.find(key);
      return v != nullptr ? v->as_string() : std::string{};
    };
    auto num = [&item](const char* key, double fallback) {
      const json::Value* v = item.find(key);
      return v != nullptr ? v->as_number(fallback) : fallback;
    };
    if (kind == "link_rate") {
      plan.link_rate(at, str("host"), DataRate::kbps(item.at("rate_kbps").as_number()));
    } else if (kind == "link_ramp") {
      plan.link_ramp(at, str("host"), DataRate::kbps(item.at("rate_kbps").as_number()),
                     DataRate::kbps(item.at("rate_end_kbps").as_number()),
                     millis_f(item.at("duration_ms").as_number()),
                     static_cast<int>(num("steps", 8)));
    } else if (kind == "link_outage") {
      plan.link_outage(at, str("host"), millis_f(item.at("duration_ms").as_number()));
    } else if (kind == "burst_loss") {
      plan.burst_loss(at, item.at("average").as_number(), num("mean_burst", 4.0), str("host"));
    } else if (kind == "relay_crash") {
      plan.relay_crash(at, static_cast<std::size_t>(num("relay", 0)),
                       millis_f(item.at("duration_ms").as_number()),
                       millis_f(num("detection_ms", 250.0)));
    } else {
      throw std::runtime_error{"fault plan JSON: unknown kind '" + kind + "'"};
    }
  }
  return plan;
}

}  // namespace vc::fault
