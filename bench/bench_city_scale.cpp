// City-scale relay-federation sweep (PR 10): fleet size × placement policy
// over a city's worth of concurrent meetings per task, on the new src/fleet
// subsystem (cascaded relays + meeting load balancer + spare-capacity
// failover).
//
// Each task simulates one city: one platform, one fleet::RelayFleet, and a
// staggered batch of meetings (a broadcasting host plus passive receivers
// each). The default sweep covers fleet sizes {1,2,4} × policies
// {rr,least,locality} × `--cities` replicas, plus a crash-failover cell
// (relay 0 crashes mid-call, the balancer re-homes its meetings onto
// survivors and the clients reconnect) — north of 10^4 simulated
// participants end to end. Reported per cell: one-way video lag quantiles,
// meetings completed, trunked packet totals; report-level "rates" carry
// events/sec and bytes/sec (the runner divides the deterministic
// city.sim_events / city.sim_bytes counters by wall-clock).
//
// The sweep runs once at 1 thread and twice at 8 (the second 8-thread pass
// is the placement-replica check); all three aggregate reports must be
// byte-identical (exit 1).
//
// `--gate <ratio>` switches to the fleet-of-1 equivalence gate CI's
// perf-smoke job runs: interleaved A/B rounds of the same single-meeting
// Webex workload with native relay steering vs a fleet of size 1 with the
// balancer armed. The two aggregates must be byte-identical (exit 1 — the
// balancer's placement must reproduce the native path exactly) and
// best-of-rounds wall clock may not regress below the gate ratio (e.g.
// --gate 0.98 = "the armed balancer costs <= 2%", exit 3).
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/city_benchmark.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

platform::PlatformId parse_platform(const std::string& name) {
  if (const auto id = platform::platform_from_name(name)) return *id;
  std::fprintf(stderr, "unknown platform %s (zoom|webex|meet)\n", name.c_str());
  std::exit(2);
}

struct Cell {
  int fleet_size = 1;
  fleet::PlacementPolicy policy = fleet::PlacementPolicy::kRoundRobin;
  bool crash = false;
  std::string key;  // e.g. "f2/least" or "f2/least/crash"
};

/// Fleet-of-1 equivalence gate session (CI perf-smoke): off = native relay
/// steering, armed = a fleet of size 1 with the balancer armed.
runner::ExperimentRunner::Task gate_task(bool fleet_on) {
  return [fleet_on](runner::SessionContext& ctx) {
    core::CityScaleConfig cfg;
    // Single-meeting Webex: the one workload whose native steering a
    // fleet of 1 reproduces move for move (one relay at webex-us-east,
    // allocated at meeting creation, no P2P short-circuit, no allocator
    // RNG draw) — which is what makes byte-identity a fair demand.
    cfg.platform = platform::PlatformId::kWebex;
    cfg.meetings = 1;
    cfg.participants_per_meeting = 7;
    cfg.media_duration = seconds(10);
    cfg.use_fleet = fleet_on;
    cfg.fleet_size = 1;
    cfg.attach_fleet_metrics = false;  // match the native instrument set
    cfg.seed = ctx.seed;
    cfg.metrics = &ctx.metrics;
    const auto r = core::run_city_scale_benchmark(cfg);
    ctx.sample("gate.completed", static_cast<double>(r.meetings_completed));
    ctx.sample("gate.lag_samples", static_cast<double>(r.lag_ms.size()));
    vcb::sample_quantiles(ctx, "gate.lag", r.lag_ms);
  };
}

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  const double gate = flags.number("--gate", 0.0);
  const int rounds = flags.integer("--rounds", 5, /*min=*/3);
  const std::string out_path = flags.text("--out", "bench_city_scale.report.json");
  const std::string platform_name = flags.text("--platform", "zoom");
  const int cities = flags.integer("--cities", paper ? 8 : 4, /*min=*/1);
  const int meetings = flags.integer("--meetings", paper ? 24 : 13, /*min=*/1);
  const int participants = flags.integer("--participants", 7, /*min=*/1);
  const int overflow = flags.integer("--overflow", 6, /*min=*/0);
  const std::string fleets = flags.text("--fleets", "1,2,4");
  const std::string policy_names = flags.text("--policies", "rr,least,locality");
  flags.reject_unread();
  if (gate > 0.0) {
    return vcb::invisibility_gate("city_scale_fleet_gate", gate_task, /*n=*/3, /*base_seed=*/10101,
                                  rounds, gate).finish(out_path);
  }

  vcb::banner("City scale — relay federation fleet sweep", paper);

  const platform::PlatformId plat = parse_platform(platform_name);
  std::vector<int> fleet_sizes;
  for (const auto& s : split_csv(fleets)) {
    fleet_sizes.push_back(vc::Flags::parse_integer("--fleets", s, /*min=*/1));
  }
  std::vector<fleet::PlacementPolicy> policies;
  for (const auto& s : split_csv(policy_names)) {
    try {
      policies.push_back(fleet::parse_policy(s));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "--policies: %s\n", e.what());
      return 2;
    }
  }
  if (fleet_sizes.empty() || policies.empty()) {
    std::fprintf(stderr, "--fleets and --policies each need at least one entry\n");
    return 2;
  }

  // Sweep cells: every fleet size × policy, `cities` tasks each, plus a
  // crash-failover cell on the largest fleet (least-loaded re-homing).
  std::vector<Cell> cells;
  for (const int f : fleet_sizes) {
    for (const auto policy : policies) {
      Cell c;
      c.fleet_size = f;
      c.policy = policy;
      c.key = "f" + std::to_string(f) + "/" + fleet::policy_name(policy);
      for (int i = 0; i < cities; ++i) cells.push_back(c);
    }
  }
  {
    Cell c;
    c.fleet_size = std::max<int>(2, fleet_sizes.back());
    c.policy = fleet::PlacementPolicy::kLeastLoaded;
    c.crash = true;
    c.key = "f" + std::to_string(c.fleet_size) + "/least/crash";
    for (int i = 0; i < cities; ++i) cells.push_back(c);
  }

  const auto task = [&cells, plat, meetings, participants,
                     overflow](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index];
    core::CityScaleConfig cfg;
    cfg.platform = plat;
    cfg.fleet_size = c.fleet_size;
    cfg.policy = c.policy;
    cfg.overflow_shard_size = c.fleet_size > 1 ? overflow : 0;
    cfg.meetings = meetings;
    cfg.participants_per_meeting = participants;
    cfg.inject_crash = c.crash;
    cfg.seed = ctx.seed;
    cfg.metrics = &ctx.metrics;
    cfg.tracer = ctx.tracer;
    const auto r = core::run_city_scale_benchmark(cfg);
    ctx.sample(c.key + ".completed", static_cast<double>(r.meetings_completed));
    ctx.sample(c.key + ".join_timeouts", static_cast<double>(r.join_timeouts));
    ctx.sample(c.key + ".clients", static_cast<double>(r.clients));
    ctx.sample(c.key + ".relays", static_cast<double>(r.relays_created));
    ctx.sample(c.key + ".trunk_delivered", static_cast<double>(r.trunk_delivered_packets));
    ctx.sample(c.key + ".trunk_dropped", static_cast<double>(r.trunk_dropped_packets));
    if (c.crash) {
      ctx.sample(c.key + ".lost_in_outage", static_cast<double>(r.packets_lost_in_outage));
      ctx.sample(c.key + ".reconnects", static_cast<double>(r.reconnects));
    }
    vcb::sample_quantiles(ctx, c.key + ".lag", r.lag_ms);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 9090;
  rc.label = "city_scale";
  rc.rate_counters = {"city.sim_events", "city.sim_bytes"};
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;
  // Placement-replica check: the identical 8-thread sweep again — fleet
  // decisions must be a pure function of (seed, config), never of scheduling.
  rc.threads = 8;
  const auto replica = runner::ExperimentRunner{rc}.run(cells.size(), task);

  TextTable table{{"cell", "clients", "done", "relays", "trunk pkts", "trunk drop",
                   "lag p50 (ms)", "lag p90 (ms)"}};
  auto cell_num = [&report](const std::string& key, int digits) {
    const auto* s = report.find_sample(key);
    return s ? TextTable::num(s->mean(), digits) : std::string{"-"};
  };
  std::vector<std::string> seen;
  for (const Cell& c : cells) {
    if (std::find(seen.begin(), seen.end(), c.key) != seen.end()) continue;
    seen.push_back(c.key);
    table.add_row({c.key, cell_num(c.key + ".clients", 0), cell_num(c.key + ".completed", 1),
                   cell_num(c.key + ".relays", 1), cell_num(c.key + ".trunk_delivered", 0),
                   cell_num(c.key + ".trunk_dropped", 0), cell_num(c.key + ".lag.p50", 1),
                   cell_num(c.key + ".lag.p90", 1)});
  }
  std::printf("%s\n", table.render().c_str());

  double total_clients = 0.0;
  for (const auto& [name, s] : report.samples) {
    if (name.size() > 8 && name.compare(name.size() - 8, 8, ".clients") == 0) {
      total_clients += s.sum();
    }
  }
  std::printf("sweep total: %.0f simulated participants across %zu city tasks "
              "(%.0f across the 1-thread, 8-thread, and replica passes)\n",
              total_clients, report.sessions, total_clients * 3);
  for (const auto& [name, value] : report.rates) {
    std::printf("rate %s: %.0f\n", name.c_str(), value);
  }

  const bool replica_identical = report.aggregate_json() == replica.aggregate_json();
  std::printf("placement replica bit-identical to the 8-thread pass: %s\n",
              replica_identical ? "yes" : "NO — determinism regression!");
  const int status = run.finish(out_path);
  return replica_identical ? status : 1;
}
