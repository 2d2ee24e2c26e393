// Competing-flow fairness sweep (PR 6): N two-party sessions — mixed
// platforms × mixed client ABR adapters — sharing one bottleneck gateway
// downlink (core::run_fairness_session). Each cell reports Jain's fairness
// index, per-flow achieved rate and share, convergence time to steady state,
// the shaper's self-inflicted queuing lag, and drop fraction; every cell runs
// with ABR applied and again with every flow on the plain platform-pushed
// policy, so the sweep shows what client-side adaptation buys (or costs) at
// a shared link.
//
// The sweep runs on runner::ExperimentRunner once at 1 thread and once at 8;
// the aggregate reports must be bit-identical — ABR active included (exit 1
// on any mismatch).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fairness_benchmark.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

struct Cell {
  int flows = 2;
  bool abr = true;
  std::string key;  // e.g. "f4.abr" / "f4.plain"
};

core::FairnessBenchmarkConfig cell_config(const Cell& cell, SimDuration media) {
  core::FairnessBenchmarkConfig cfg;
  cfg.flows = core::default_fairness_flows(cell.flows);
  if (!cell.abr) {
    for (auto& f : cfg.flows) f.abr = abr::AbrKind::kNone;
  }
  // Scale the bottleneck with the flow count so every cell sits in the same
  // per-flow contention regime (~600 Kbps/flow against Mbps-class targets).
  cfg.bottleneck = DataRate::kbps(600 * cell.flows);
  cfg.media_duration = media;
  return cfg;
}

void sample_session(runner::SessionContext& ctx, const std::string& key,
                    const core::FairnessBenchmarkResult& r) {
  ctx.sample(key + ".jain", r.jain_index);
  ctx.sample(key + ".utilization", r.utilization);
  ctx.sample(key + ".queue_ms", r.queue_delay_mean_ms);
  ctx.sample(key + ".queue_max_ms", r.queue_delay_max_ms);
  ctx.sample(key + ".drop", r.drop_fraction);
  if (r.convergence_mean_seconds >= 0.0) {
    ctx.sample(key + ".convergence_s", r.convergence_mean_seconds);
  }
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const auto& f = r.flows[i];
    const std::string fk = key + ".flow" + std::to_string(i);
    ctx.sample(fk + ".kbps", f.achieved_kbps);
    ctx.sample(fk + ".share", f.share);
    if (f.convergence_seconds >= 0.0) ctx.sample(fk + ".convergence_s", f.convergence_seconds);
    if (f.abr != abr::AbrKind::kNone) {
      ctx.sample(fk + ".abr_decisions", static_cast<double>(f.abr_decisions));
      ctx.sample(fk + ".abr_switches", static_cast<double>(f.abr_tier_switches));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  const std::string out_path = flags.text("--out", "bench_fairness.report.json");
  flags.reject_unread();

  vcb::banner("Competing-flow fairness — shared bottleneck, client ABR vs platform policy",
              paper);

  const std::vector<int> flow_counts = paper ? std::vector<int>{2, 4, 8}
                                             : std::vector<int>{2, 4};
  const int sessions_per_cell = paper ? 3 : 1;
  const SimDuration media = paper ? seconds(30) : seconds(15);

  std::vector<Cell> cells;
  for (const int nf : flow_counts) {
    for (const bool abr_on : {true, false}) {
      Cell c;
      c.flows = nf;
      c.abr = abr_on;
      c.key = "f" + std::to_string(nf) + (abr_on ? ".abr" : ".plain");
      for (int s = 0; s < sessions_per_cell; ++s) cells.push_back(c);
    }
  }

  const auto task = [&cells, media](runner::SessionContext& ctx) {
    const Cell& c = cells[ctx.task_index];
    const core::FairnessBenchmarkConfig cfg = cell_config(c, media);
    const auto r = core::run_fairness_session(cfg, ctx.seed);
    sample_session(ctx, c.key, r);
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 6006;
  rc.label = "fairness";
  const auto run = vcb::run_checked(rc, cells.size(), task);
  const auto& report = run.report;

  TextTable table{{"flows", "abr", "Jain", "util", "queue (ms)", "drop", "conv (s)",
                   "min flow (kbps)", "max flow (kbps)"}};
  auto cell_stat = [&report](const std::string& key) -> const RunningStats* {
    return report.find_sample(key);
  };
  for (const int nf : flow_counts) {
    for (const bool abr_on : {true, false}) {
      const std::string k = "f" + std::to_string(nf) + (abr_on ? ".abr" : ".plain");
      double lo = 0.0, hi = 0.0;
      for (int i = 0; i < nf; ++i) {
        const auto* s = cell_stat(k + ".flow" + std::to_string(i) + ".kbps");
        if (s == nullptr) continue;
        if (lo == 0.0 || s->mean() < lo) lo = s->mean();
        hi = std::max(hi, s->mean());
      }
      const auto* jain = cell_stat(k + ".jain");
      const auto* util = cell_stat(k + ".utilization");
      const auto* queue = cell_stat(k + ".queue_ms");
      const auto* drop = cell_stat(k + ".drop");
      const auto* conv = cell_stat(k + ".convergence_s");
      table.add_row({std::to_string(nf), abr_on ? "mixed" : "off",
                     jain ? TextTable::num(jain->mean(), 3) : "-",
                     util ? TextTable::num(util->mean(), 2) : "-",
                     queue ? TextTable::num(queue->mean(), 1) : "-",
                     drop ? TextTable::num(drop->mean(), 3) : "-",
                     conv ? TextTable::num(conv->mean(), 1) : "-", TextTable::num(lo, 0),
                     TextTable::num(hi, 0)});
    }
  }
  std::printf("%s\n", table.render().c_str());

  return run.finish(out_path);
}
