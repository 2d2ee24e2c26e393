// vcperf's four workloads. Each is a fixed list of session tasks (one round)
// run through the public core::run_* entry points; a task records its
// deterministic outputs into its SessionContext, reports how many calls it
// made into each layer, and throws when its outputs fail the workload's
// checks. Why each workload was chosen is in README.md.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/perf/probes.h"
#include "runner/experiment_runner.h"

namespace vcperf {

/// Whether a workload calls a layer, and where its `<layer>.calls` comes from.
enum class CallSource {
  /// The workload never calls the layer: it is neither probed nor reported.
  kUnused,
  /// A counter or result field the entry point exposes.
  kMeasured,
  /// Worked out from the task's config (frames = senders × seconds × fps, ...).
  kDerived,
  /// The workload calls the layer, but its entry point exposes nothing to
  /// count the calls with: the layer is probed, its calls and share are not
  /// reported.
  kUncounted,
};

const char* call_source_name(CallSource source);
inline bool counted(CallSource source) {
  return source == CallSource::kMeasured || source == CallSource::kDerived;
}

struct TaskOutput {
  /// Simulated clients × simulated media seconds.
  double participant_seconds = 0.0;
  /// Calls per layer; 0 where the layer is unused or uncounted.
  std::array<double, kLayerCount> calls{};
  // Bases of the waste ratios; 0 where the entry point does not expose them.
  double link_packets = 0.0;
  double loop_queue_depth_hwm = 0.0;
  double relay_ingests = 0.0;
  double trunk_dropped = 0.0;
  double shaper_drop_frac = 0.0;
};

struct Workload {
  std::string name;
  /// Names the span around each task's core::run_* call in the traced run.
  std::string entry_point;
  /// Cell of each of a round's tasks, in order; task i runs with seed
  /// base_seed ^ i, like every runner::ExperimentRunner task.
  std::vector<int> round_cells;
  std::function<TaskOutput(int cell, std::uint64_t seed, vc::runner::SessionContext& ctx)> run;
  std::array<CallSource, kLayerCount> calls_source{};
  ProbeParams probe;
};

const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// Which of a layer's metrics every workload reports, so that the traced
/// run's result line holds the same names whichever workload ran.
struct SharedLayerMetrics {
  /// Every workload calls the layer: `<layer>.ns_per_call`.
  bool ns_per_call = false;
  /// Every workload counts its calls: `<layer>.calls` and `<layer>.share`.
  bool calls = false;
};
SharedLayerMetrics shared_layer_metrics(Layer layer);

}  // namespace vcperf
