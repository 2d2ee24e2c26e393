// Extension (Section 6, "Free-tier vs paid subscription"): the paper
// verified that paid-tier Webex clients in US-west and Europe stream from
// geographically close-by servers with RTTs under 20 ms. This bench runs the
// same European lag experiment on both tiers.
//
// Each tier is one task on runner::ExperimentRunner running its whole
// multi-session lag benchmark (the VMs persist across a config's sessions),
// executed once on one thread and once on eight; the two aggregate reports
// must be bit-identical.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/lag_benchmark.h"
#include "runner/experiment_runner.h"

using namespace vc;

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const bool paper = flags.has("--paper");
  flags.reject_unread();
  vcb::banner("Extension — Webex free vs paid tier (European sessions)", paper);

  const struct {
    platform::WebexTier tier;
    const char* key;
    const char* label;
  } tiers[] = {
      {platform::WebexTier::kFree, "free", "free tier"},
      {platform::WebexTier::kPaid, "paid", "paid tier"},
  };

  const auto task = [&tiers, paper](runner::SessionContext& ctx) {
    const auto& t = tiers[ctx.task_index];
    core::LagBenchmarkConfig cfg;
    cfg.platform = platform::PlatformId::kWebex;
    cfg.webex_tier = t.tier;
    cfg.host_site = "CH";
    cfg.participant_sites = core::europe_participant_sites("CH");
    cfg.sessions = paper ? 20 : 5;
    cfg.session_duration = paper ? seconds(120) : seconds(40);
    cfg.seed = ctx.seed;
    cfg.metrics = &ctx.metrics;
    const auto result = core::run_lag_benchmark(cfg);
    for (const auto& p : result.participants) {
      const std::string base = std::string("paid_tier/") + t.key + "/" + p.label;
      if (!p.lags_ms.empty()) {
        ctx.sample(base + ".median_lag_ms", median(std::vector<double>(p.lags_ms)));
      }
      if (!p.session_rtt_ms.empty()) {
        ctx.sample(base + ".median_rtt_ms", median(std::vector<double>(p.session_rtt_ms)));
      }
    }
  };

  runner::ExperimentRunner::Config rc;
  rc.base_seed = 71;
  rc.label = "ext_paid_tier";
  const auto run = vcb::run_checked(rc, std::size(tiers), task);
  const auto& report = run.report;

  const auto labels = core::participant_labels(core::europe_participant_sites("CH"));
  for (const auto& t : tiers) {
    std::printf("--- Webex %s: meeting host in CH, participants across Europe ---\n", t.label);
    TextTable table{{"participant", "median lag (ms)", "median RTT (ms)"}};
    for (const auto& label : labels) {
      const std::string base = std::string("paid_tier/") + t.key + "/" + label;
      const auto* lag = report.find_sample(base + ".median_lag_ms");
      const auto* rtt = report.find_sample(base + ".median_rtt_ms");
      table.add_row({label, lag != nullptr ? TextTable::num(lag->mean(), 1) : "-",
                     rtt != nullptr ? TextTable::num(rtt->mean(), 1) : "-"});
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf("paper (Section 6): with a paid subscription, Webex clients in Europe\n"
              "stream from close-by servers with RTTs < 20 ms — the trans-Atlantic\n"
              "detour (and its ~100 ms lag floor) disappears.\n");

  return run.finish("bench_ext_paid_tier.report.json");
}
