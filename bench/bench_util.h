// Shared helpers for the figure/table regeneration binaries.
//
// Each binary defaults to a reduced-scale run (enough sessions to show the
// paper's shapes in seconds-to-minutes on a laptop); pass --paper to run at
// the paper's full scale (20 sessions × 2 min lag runs, 10 × 5 min QoE
// sessions, 5 repetitions per mobile scenario). Flags are read through one
// vc::Flags (common/flags.h).
//
// The harness half of this header is what every runner bench ends with:
// run_checked() runs the task list at 1 and at 8 threads and finish()
// enforces the determinism contract (byte-identical aggregates and per-task
// trace/timeline files, no task failures); invisibility_gate() is the one
// interleaved A/B gate ("the armed side is byte-invisible and within a
// wall-clock ratio") behind every wall-clock perf-smoke CI step.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"
#include "platform/platform.h"
#include "runner/experiment_runner.h"

namespace vcb {

inline const std::vector<vc::platform::PlatformId>& all_platforms() {
  static const std::vector<vc::platform::PlatformId> kAll = {
      vc::platform::PlatformId::kZoom,
      vc::platform::PlatformId::kWebex,
      vc::platform::PlatformId::kMeet,
  };
  return kAll;
}

inline void banner(const std::string& title, bool paper) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("scale: %s (pass --paper for the paper's full scale)\n",
              paper ? "paper" : "reduced");
  std::printf("================================================================\n\n");
}

/// Records `<base>.p10/.p25/.p50/.p75/.p90` of `values`; nothing when empty.
inline void sample_quantiles(vc::runner::SessionContext& ctx, const std::string& base,
                             const std::vector<double>& values) {
  if (values.empty()) return;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    char suffix[8];
    std::snprintf(suffix, sizeof(suffix), ".p%d", static_cast<int>(q * 100 + 0.5));
    ctx.sample(base + suffix, vc::quantile(std::vector<double>(values), q));
  }
}

/// FNV-1a over 64-bit words: the digest the A/B benches fold their
/// transcripts into, starting from kFnvBasis.
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ULL;
}

/// Records digest `h` exactly, as the samples `<base>.hi` and `<base>.lo`
/// (32 bits each), so an aggregate comparison compares the whole digest.
inline void sample_digest(vc::runner::SessionContext& ctx, const std::string& base,
                          std::uint64_t h) {
  ctx.sample(base + ".hi", static_cast<double>(h >> 32));
  ctx.sample(base + ".lo", static_cast<double>(h & 0xffffffffU));
}

/// One task list run at 1 thread and at 8 (see run_checked). `report` is the
/// 8-thread pass, the one benches render their tables from.
struct CheckedRun {
  vc::runner::RunReport serial;
  vc::runner::RunReport report;
  /// Per-task `.trace.json` / `.timeline.json` files that differ (or are
  /// missing) between `<dir>/t1` and `<dir>/t8`; empty when that export is off.
  std::optional<std::size_t> trace_mismatches;
  std::optional<std::size_t> timeline_mismatches;

  bool identical() const {
    return serial.aggregate_json() == report.aggregate_json() &&
           trace_mismatches.value_or(0) == 0 && timeline_mismatches.value_or(0) == 0;
  }
  bool ok() const { return identical() && serial.failures.empty() && report.failures.empty(); }

  /// Prints the session/failure, wall-clock and byte-identity lines, writes
  /// report.to_json() to `out_path`, and returns the exit code: 0, or 1 on
  /// any byte mismatch or task failure.
  int finish(const std::string& out_path) const {
    std::printf("sessions: %zu  failures: %zu\n", report.sessions, report.failures.size());
    for (const auto& [idx, what] : report.failures) {
      std::printf("  task %zu failed: %s\n", idx, what.c_str());
    }
    std::printf("wall clock: %.2f s at 1 thread, %.2f s at 8 threads — speedup %.2fx\n",
                serial.wall_seconds, report.wall_seconds,
                report.wall_seconds > 0 ? serial.wall_seconds / report.wall_seconds : 0.0);
    const auto verdict = [](bool same) { return same ? "yes" : "NO — determinism regression!"; };
    std::printf("aggregate reports bit-identical across thread counts: %s\n",
                verdict(serial.aggregate_json() == report.aggregate_json()));
    for (const auto& [kind, mismatches] :
         {std::pair{"trace", trace_mismatches}, std::pair{"timeline", timeline_mismatches}}) {
      if (!mismatches) continue;
      std::printf("per-task %s files bit-identical across thread counts: %s\n", kind,
                  verdict(*mismatches == 0));
    }
    if (vc::runner::write_text_file(out_path, report.to_json())) {
      std::printf("report written to %s\n", out_path.c_str());
    }
    return ok() ? 0 : 1;
  }
};

/// Runs `task` over `n` sessions at 1 thread and again at 8 — the runner's
/// determinism contract says the two aggregates are byte-identical. A
/// non-empty `rc.trace_dir` / `rc.timeline_dir` is a base directory: the
/// passes export into `<dir>/t1` and `<dir>/t8`, and every per-task file
/// must match too. Call finish() on the result once tables are rendered.
inline CheckedRun run_checked(vc::runner::ExperimentRunner::Config rc, std::size_t n,
                              const vc::runner::ExperimentRunner::Task& task) {
  const std::string trace_dir = rc.trace_dir;
  const std::string timeline_dir = rc.timeline_dir;
  auto pass = [&](std::size_t threads, const char* sub) {
    rc.threads = threads;
    if (!trace_dir.empty()) rc.trace_dir = trace_dir + sub;
    if (!timeline_dir.empty()) rc.timeline_dir = timeline_dir + sub;
    return vc::runner::ExperimentRunner{rc}.run(n, task);
  };
  CheckedRun run;
  run.serial = pass(1, "/t1");
  run.report = pass(8, "/t8");
  auto mismatches = [n](const std::string& dir,
                        const char* ext) -> std::optional<std::size_t> {
    if (dir.empty()) return std::nullopt;
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string name = "/" + std::to_string(i) + ext;
      std::string a, b;
      if (!vc::runner::read_text_file(dir + "/t1" + name, &a) ||
          !vc::runner::read_text_file(dir + "/t8" + name, &b) || a != b) {
        ++count;
      }
    }
    return count;
  };
  run.trace_mismatches = mismatches(trace_dir, ".trace.json");
  run.timeline_mismatches = mismatches(timeline_dir, ".timeline.json");
  return run;
}

/// Builds the gate's session task for one side: armed = false is the
/// reference (the machinery off), armed = true the side under test.
using TaskFactory = std::function<vc::runner::ExperimentRunner::Task(bool armed)>;

/// One invisibility_gate() verdict: exit `code` and the gate report object
/// (empty when a pass threw or was visible).
struct GateRun {
  int code = 0;
  std::string json;

  /// Writes `json` to `out_path` when there is one and returns `code`.
  int finish(const std::string& out_path) const {
    if (!json.empty() && vc::runner::write_text_file(out_path, json + "\n")) {
      std::printf("report written to %s\n", out_path.c_str());
    }
    return code;
  }
};

/// Interleaved A/B invisibility gate: `rounds` rounds of `n`
/// sessions on one thread, alternating make_task(false) and make_task(true).
/// Every pass's aggregate must equal the first one and no task may throw
/// (code 1); the best-of-rounds wall-clock ratio off/armed must reach `ratio`
/// (code 3). Best-of-rounds because scheduler noise only ever adds time. A
/// verdict carries the gate report {benchmark, rounds, best_off_seconds,
/// best_armed_seconds, speed_ratio, gate, aggregates_byte_identical}.
inline GateRun invisibility_gate(const std::string& label, const TaskFactory& make_task,
                                 std::size_t n, std::uint64_t base_seed, int rounds,
                                 double ratio) {
  vc::runner::ExperimentRunner::Config rc;
  rc.base_seed = base_seed;
  rc.label = label;
  rc.threads = 1;
  std::string baseline_json;
  double best_off = 0.0, best_armed = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (const bool armed : {false, true}) {
      const auto report = vc::runner::ExperimentRunner{rc}.run(n, make_task(armed));
      if (!report.failures.empty()) {
        std::printf("FAIL: %s: gate session threw (%zu failures): %s\n", label.c_str(),
                    report.failures.size(), report.failures.front().second.c_str());
        return {1, ""};
      }
      if (baseline_json.empty()) {
        baseline_json = report.aggregate_json();
      } else if (report.aggregate_json() != baseline_json) {
        std::printf("FAIL: %s: %s aggregate differs from the off baseline — the armed "
                    "machinery must be byte-invisible\n",
                    label.c_str(), armed ? "armed" : "off");
        return {1, ""};
      }
      double& best = armed ? best_armed : best_off;
      if (best == 0.0 || report.wall_seconds < best) best = report.wall_seconds;
    }
  }
  const double speed_ratio = best_armed > 0.0 ? best_off / best_armed : 0.0;
  std::printf("%s: best off %.3f s, best armed %.3f s, ratio %.3fx (gate %.2fx), "
              "aggregates byte-identical: yes\n",
              label.c_str(), best_off, best_armed, speed_ratio, ratio);

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\n  \"benchmark\": \"%s\",\n  \"rounds\": %d,\n"
                "  \"best_off_seconds\": %.6f,\n  \"best_armed_seconds\": %.6f,\n"
                "  \"speed_ratio\": %.4f,\n  \"gate\": %.2f,\n"
                "  \"aggregates_byte_identical\": true\n}",
                label.c_str(), rounds, best_off, best_armed, speed_ratio, ratio);
  if (speed_ratio < ratio) {
    std::printf("FAIL: %s: speed ratio off/armed %.3fx below gate %.2fx\n", label.c_str(),
                speed_ratio, ratio);
    return {3, json};
  }
  return {0, json};
}

}  // namespace vcb
