// Competing-flow fairness benchmark: N independent two-party sessions (mixed
// platforms × mixed client ABR adapters) whose receivers share one bottleneck
// — a single gateway VM behind a TokenBucketShaper, the tc/ifb analog of a
// congested office downlink. The paper measures each platform's adaptation in
// isolation (Section 4.4, Figs 17–18); this benchmark asks the follow-on
// question (MacMillan et al., arXiv 2105.13478): how do those control loops —
// and client-side ABR overrides of them — split a link they must share?
//
// Reported per run: Jain's fairness index over per-flow achieved rates, each
// flow's achieved rate and bottleneck share, the shaper's self-inflicted
// queuing lag, per-flow convergence time to its steady-state rate, and drop
// fraction. Deterministic: same seed ⇒ identical results at any thread
// count, ABR on or off (see bench_fairness and
// tests/determinism/test_fairness_determinism.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "abr/abr.h"
#include "common/units.h"
#include "fault/fault_plan.h"
#include "platform/platform.h"

namespace vc::core {

/// One competing sender→receiver session.
struct FairnessFlowConfig {
  platform::PlatformId platform = platform::PlatformId::kZoom;
  /// Client-side ABR on the *sender*: kNone is off (platform-pushed rate
  /// only); any other kind is applied.
  abr::AbrKind abr = abr::AbrKind::kNone;
  /// Where the sending VM lives (Table 3 site name).
  std::string sender_site = "US-West";
};

struct FairnessBenchmarkConfig {
  /// 2–8 flows sharing the bottleneck.
  std::vector<FairnessFlowConfig> flows;
  /// The shared gateway downlink (every receiver lives on the gateway VM).
  DataRate bottleneck = DataRate::mbps(2.5);
  int queue_limit_packets = 200;
  /// Gateway VM site; the VM is named after it, so fault plans can target
  /// the bottleneck with link_rate/link_outage on this name.
  std::string gateway_site = "US-East";
  SimDuration media_duration = seconds(30);
  double fps = 10.0;
  /// Injected feed geometry (small, like the fault-recovery benchmark: the
  /// codec runs for real so loss feedback — and thus ABR — is end-to-end).
  int feed_width = 128;
  int feed_height = 96;
  int padding = 16;
  /// Optional fault timeline, armed at media start against the first flow's
  /// platform (link events resolve host names, e.g. the gateway site name).
  fault::FaultPlan fault_plan;
  bool use_fault_plan = false;
};

/// Per-flow outcome over the measurement window (all flows streaming).
struct FairnessFlowResult {
  platform::PlatformId platform{};
  abr::AbrKind abr = abr::AbrKind::kNone;
  /// Post-shaper video goodput at the receiver.
  double achieved_kbps = 0.0;
  /// Fraction of the summed achieved rate.
  double share = 0.0;
  /// Seconds from window start until the flow's binned rate entered (and
  /// stayed in) its steady-state band; -1 if it never settled.
  double convergence_seconds = -1.0;
  std::int64_t abr_decisions = 0;
  std::int64_t abr_tier_switches = 0;
  /// The sender's final applied encode target.
  double final_target_kbps = 0.0;
};

struct FairnessBenchmarkResult {
  /// Jain's index over per-flow achieved rates: (Σx)² / (n·Σx²); 1 = equal.
  double jain_index = 0.0;
  /// Summed achieved rate over the bottleneck rate.
  double utilization = 0.0;
  /// Self-inflicted queuing at the shared shaper (ms).
  double queue_delay_mean_ms = 0.0;
  double queue_delay_max_ms = 0.0;
  /// Shaper drop fraction (bytes dropped / bytes offered).
  double drop_fraction = 0.0;
  /// Mean convergence over flows that settled; -1 if none did.
  double convergence_mean_seconds = -1.0;
  std::vector<FairnessFlowResult> flows;
};

/// One self-contained fairness session built entirely from `seed` — the unit
/// ExperimentRunner fans out.
FairnessBenchmarkResult run_fairness_session(const FairnessBenchmarkConfig& config,
                                             std::uint64_t seed);

/// Mixed default: flows cycling Zoom/Webex/Meet × buffer/throughput/MPC.
std::vector<FairnessFlowConfig> default_fairness_flows(int n);

}  // namespace vc::core
