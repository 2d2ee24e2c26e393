// Fault-recovery sweep (PR 5): outage duration × platform, on the seeded
// fault-injection subsystem (src/fault).
//
// Each cell is one flash-feed session whose relay crashes mid-call and
// restarts after the cell's outage duration; the clients reconnect through
// client::ClientController's seeded backoff. Reported per cell: disconnect /
// reconnect counts, time-to-recover (mean and worst), packets lost at the
// crashed relay, the lag-spike high-water mark, and the streaming-lag
// distribution split into before / during / after phases (the during and
// after quantiles are recorded as `<cell>.lag_during.p10..p90` samples, the
// shape `vcbench_cli report --cdf` renders).
//
// The sweep runs on runner::ExperimentRunner once at 1 thread and once at 8;
// the aggregate reports must be bit-identical — faulted sessions obey the
// same determinism contract as healthy ones (exit 1).
//
// `--gate <ratio>` switches to the empty-plan overhead check CI's perf-smoke
// job runs: interleaved A/B rounds of the same healthy session with no plan
// vs an armed-but-empty FaultPlan. The two aggregate reports must be
// byte-identical (exit 1) and best-of-rounds wall clock may not regress
// below the gate ratio (e.g. --gate 0.98 = "an installed empty plan costs
// <= 2%", exit 3). Best-of-rounds because scheduler noise only ever adds
// time.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fault_recovery_benchmark.h"
#include "health/health_monitor.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

struct Cell {
  platform::PlatformId id{};
  SimDuration outage{};
  std::uint64_t platform_seed = 0;
  std::string key;  // e.g. "Zoom/out3s"
};

core::FaultRecoveryConfig base_config(SimDuration session_duration) {
  core::FaultRecoveryConfig cfg;
  cfg.session_duration = session_duration;
  cfg.outage_start = seconds(8);
  cfg.recovery_grace = seconds(5);
  return cfg;
}

/// Default SLO rules for `--timeline` runs (overridable with `--slo FILE`):
/// steady state means nobody reconnects, and a disconnect is critical. Both
/// watch per-sample deltas, so the breach window tracks the outage window.
std::vector<health::SloRule> default_slo_rules() {
  std::vector<health::SloRule> rules;
  health::SloRule reconnect;
  reconnect.rule = "reconnect-steady";
  reconnect.metric = "client.reconnects";
  reconnect.field = health::SloRule::Field::kDelta;
  reconnect.op = health::SloRule::Op::kEq;
  reconnect.threshold = 0.0;
  reconnect.severity = health::Severity::kWarning;
  rules.push_back(reconnect);
  health::SloRule disconnect;
  disconnect.rule = "no-disconnects";
  disconnect.metric = "client.disconnects";
  disconnect.field = health::SloRule::Field::kDelta;
  disconnect.op = health::SloRule::Op::kEq;
  disconnect.threshold = 0.0;
  disconnect.severity = health::Severity::kCritical;
  rules.push_back(disconnect);
  return rules;
}

/// Empty-plan overhead gate session (CI perf-smoke): off = no plan installed
/// at all, armed = an armed-but-empty plan.
runner::ExperimentRunner::Task gate_task(bool inject) {
  return [inject](runner::SessionContext& ctx) {
    core::FaultRecoveryConfig cfg = base_config(seconds(12));
    cfg.platform = vcb::all_platforms()[ctx.task_index % 3];
    cfg.seed = ctx.seed;
    cfg.inject = inject;
    cfg.custom_plan.emplace();  // empty custom plan: arms, schedules nothing
    const auto r = core::run_fault_recovery_benchmark(cfg);
    ctx.sample("gate.lags_before", static_cast<double>(r.lags_before_ms.size()));
    vcb::sample_quantiles(ctx, "gate.lag", r.lags_before_ms);
    ctx.sample("gate.disconnects", static_cast<double>(r.disconnects));
  };
}

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  const double gate = flags.number("--gate", 0.0);
  const int rounds = flags.integer("--rounds", 5, /*min=*/3);
  const std::string out_path = flags.text("--out", "bench_fault_recovery.report.json");
  const std::string plan_path = flags.text("--plan", "");
  const std::string timeline_dir = flags.text("--timeline", "");
  const std::string slo_path = flags.text("--slo", "");
  flags.reject_unread();
  if (gate > 0.0) {
    return vcb::invisibility_gate("fault_recovery_gate", gate_task, /*n=*/3, /*base_seed=*/4242,
                                  rounds, gate).finish(out_path);
  }

  vcb::banner("Fault recovery — relay crash mid-call, outage sweep", paper);

  // `--plan FILE` replaces the default relay-crash timeline in every cell
  // with a scripted FaultPlan (see FaultPlan::from_json for the schema).
  std::optional<fault::FaultPlan> custom_plan;
  if (!plan_path.empty()) {
    std::string text;
    if (!runner::read_text_file(plan_path, &text)) {
      std::fprintf(stderr, "cannot read fault plan %s\n", plan_path.c_str());
      return 2;
    }
    try {
      custom_plan = fault::FaultPlan::from_json(text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", plan_path.c_str(), e.what());
      return 2;
    }
    std::printf("custom fault plan: %zu event(s) from %s\n", custom_plan->size(),
                plan_path.c_str());
  }

  // `--timeline DIR` exports a per-task metrics timeline (sampled at 500 ms
  // for phase resolution) with an SLO HealthMonitor attached; `--slo FILE`
  // replaces the default rules. The serial and 8-thread sweeps write to
  // DIR/t1 and DIR/t8, and every timeline file must be byte-identical
  // between them — same contract as the aggregate reports.
  std::vector<health::SloRule> slo_rules;
  if (!timeline_dir.empty()) slo_rules = default_slo_rules();
  if (!slo_path.empty()) {
    std::string text;
    if (!runner::read_text_file(slo_path, &text)) {
      std::fprintf(stderr, "cannot read SLO rules %s\n", slo_path.c_str());
      return 2;
    }
    try {
      slo_rules = health::HealthMonitor::rules_from_json(text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", slo_path.c_str(), e.what());
      return 2;
    }
    std::printf("SLO rules: %zu from %s\n", slo_rules.size(), slo_path.c_str());
  }

  const std::vector<SimDuration> outages =
      paper ? std::vector<SimDuration>{seconds(1), seconds(2), seconds(4), seconds(8)}
            : std::vector<SimDuration>{seconds(1), seconds(3)};
  const int sessions_per_cell = paper ? 5 : 1;
  const SimDuration session_duration = paper ? seconds(60) : seconds(30);

  std::vector<Cell> cells;
  for (const auto id : vcb::all_platforms()) {
    for (const auto outage : outages) {
      Cell c;
      c.id = id;
      c.outage = outage;
      c.platform_seed = 3301 + static_cast<std::uint64_t>(id) * 37;
      c.key = std::string(platform_name(id)) + "/out" +
              std::to_string(static_cast<long long>(outage.seconds())) + "s";
      for (int s = 0; s < sessions_per_cell; ++s) cells.push_back(c);
    }
  }

  const auto task = [&cells, session_duration, &custom_plan](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index];
    core::FaultRecoveryConfig cfg = base_config(session_duration);
    cfg.platform = c.id;
    cfg.outage_duration = c.outage;
    cfg.custom_plan = custom_plan;
    cfg.seed = ctx.seed ^ c.platform_seed;
    cfg.metrics = &ctx.metrics;
    cfg.tracer = ctx.tracer;
    cfg.timeline = ctx.timeline;
    const auto r = core::run_fault_recovery_benchmark(cfg);
    if (ctx.health != nullptr) {
      // Bucket SLO breach-begins by the session's fault phases so the sweep
      // reports where in the outage window each rule fired.
      std::size_t before = 0, during = 0, after = 0;
      for (const auto& ev : ctx.health->events()) {
        if (!ev.begin) continue;
        if (ev.at < r.outage_begin_abs) {
          ++before;
        } else if (ev.at < r.recovery_end_abs) {
          ++during;
        } else {
          ++after;
        }
      }
      ctx.sample(c.key + ".slo_breach_before", static_cast<double>(before));
      ctx.sample(c.key + ".slo_breach_during", static_cast<double>(during));
      ctx.sample(c.key + ".slo_breach_after", static_cast<double>(after));
    }
    ctx.sample(c.key + ".disconnects", static_cast<double>(r.disconnects));
    ctx.sample(c.key + ".reconnects", static_cast<double>(r.reconnects));
    ctx.sample(c.key + ".attempts", static_cast<double>(r.reconnect_attempts));
    ctx.sample(c.key + ".giveups", static_cast<double>(r.reconnect_giveups));
    if (r.reconnects > 0) {
      ctx.sample(c.key + ".time_to_recover_ms", r.mean_time_to_reconnect_ms);
      ctx.sample(c.key + ".worst_time_to_recover_ms", r.max_time_to_reconnect_ms);
    }
    ctx.sample(c.key + ".packets_lost", static_cast<double>(r.packets_lost_in_outage));
    ctx.sample(c.key + ".lag_spike_hwm_ms", r.lag_spike_hwm_ms);
    vcb::sample_quantiles(ctx, c.key + ".lag_before", r.lags_before_ms);
    vcb::sample_quantiles(ctx, c.key + ".lag_during", r.lags_during_ms);
    vcb::sample_quantiles(ctx, c.key + ".lag_after", r.lags_after_ms);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 3301;
  rc.label = "fault_recovery";
  if (!timeline_dir.empty()) {
    rc.timeline_interval = millis(500);
    rc.health_rules = slo_rules;
    rc.timeline_dir = timeline_dir;
  }
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;

  TextTable table{{"platform", "outage", "reconn", "TTR (ms)", "worst TTR", "lost pkts",
                   "during p50 (ms)", "after p50 (ms)", "HWM (ms)", "SLO b/d/a"}};
  auto cell = [&report](const std::string& key, int digits) {
    const auto* s = report.find_sample(key);
    return s ? TextTable::num(s->mean(), digits) : std::string{"-"};
  };
  // Per-phase SLO breach-begin counts, summed over the cell's sessions.
  auto slo_cell = [&report](const std::string& key) {
    const auto* before = report.find_sample(key + ".slo_breach_before");
    const auto* during = report.find_sample(key + ".slo_breach_during");
    const auto* after = report.find_sample(key + ".slo_breach_after");
    if (before == nullptr && during == nullptr && after == nullptr) return std::string{"-"};
    auto total = [](const RunningStats* s) {
      return std::to_string(s != nullptr ? static_cast<long long>(s->sum() + 0.5) : 0LL);
    };
    return total(before) + "/" + total(during) + "/" + total(after);
  };
  for (const auto id : vcb::all_platforms()) {
    for (const auto outage : outages) {
      const std::string k = std::string(platform_name(id)) + "/out" +
                            std::to_string(static_cast<long long>(outage.seconds())) + "s";
      table.add_row({std::string(platform_name(id)),
                     std::to_string(static_cast<long long>(outage.seconds())) + " s",
                     cell(k + ".reconnects", 1), cell(k + ".time_to_recover_ms", 0),
                     cell(k + ".worst_time_to_recover_ms", 0), cell(k + ".packets_lost", 0),
                     cell(k + ".lag_during.p50", 1), cell(k + ".lag_after.p50", 1),
                     cell(k + ".lag_spike_hwm_ms", 1), slo_cell(k)});
    }
  }
  std::printf("%s\n", table.render().c_str());

  if (!timeline_dir.empty()) {
    std::printf("timeline: %llu sample(s) over %llu column(s); health: %llu rule(s), "
                "%llu event(s), %llu breach(es)\n",
                static_cast<unsigned long long>(report.timeline.samples),
                static_cast<unsigned long long>(report.timeline.columns),
                static_cast<unsigned long long>(report.timeline.health_rules),
                static_cast<unsigned long long>(report.timeline.health_events),
                static_cast<unsigned long long>(report.timeline.health_breaches));
  }
  return run.finish(out_path);
}
