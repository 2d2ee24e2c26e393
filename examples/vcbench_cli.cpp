// vcbench CLI: run any of the library's experiments from the command line
// and optionally export results as CSV for plotting.
//
//   vcbench_cli lag    --platform zoom --host US-East [--sessions 5] [--csv out.csv]
//   vcbench_cli qoe    --platform meet --receivers 3 --motion high [--csv out.csv]
//   vcbench_cli bwcap  --platform webex --cap-kbps 500 [--sessions 2]
//   vcbench_cli mobile --platform zoom --scenario LM-View [--repetitions 2]
//   vcbench_cli dump   --trace file.vctr [--max 50]
//   vcbench_cli infer  --trace file.vctr [--platform zoom] [--json]
//   vcbench_cli report run.json [--filter SUBSTR] [--cdf BASE]
//   vcbench_cli profile <trace.json | trace_dir> [--top N] [--chains N] [--filter SUBSTR]
//   vcbench_cli timeline 0.timeline.json [--metric SUBSTR] [--json]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "capture/qoe_infer.h"
#include "capture/trace_dump.h"
#include "capture/trace_io.h"
#include "cli/report_render.h"
#include "cli/timeline_render.h"
#include "cli/trace_profile.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/vcbench.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;

// Each run_* reads all of its flags, then rejects the rest, before any work.
platform::PlatformId parse_platform(Flags& flags) {
  const std::string name = flags.text("--platform", "zoom");
  if (const auto id = platform::platform_from_name(name)) return *id;
  throw std::invalid_argument{"unknown --platform '" + name + "' (zoom|webex|meet)"};
}

platform::MotionClass parse_motion(Flags& flags) {
  const std::string name = flags.text("--motion", "low");
  if (name == "low") return platform::MotionClass::kLowMotion;
  if (name == "high") return platform::MotionClass::kHighMotion;
  throw std::invalid_argument{"unknown --motion '" + name + "' (low|high)"};
}

mobile::MobileScenario parse_scenario(Flags& flags) {
  const std::string name = flags.text("--scenario", "LM");
  using S = mobile::MobileScenario;
  for (const S s : {S::kLM, S::kHM, S::kLMView, S::kLMVideoView, S::kLMOff}) {
    if (scenario_name(s) == name) return s;
  }
  throw std::invalid_argument{"unknown --scenario '" + name +
                              "' (LM|HM|LM-View|LM-Video-View|LM-Off)"};
}

int run_lag(Flags& flags) {
  core::LagBenchmarkConfig cfg;
  cfg.platform = parse_platform(flags);
  cfg.host_site = flags.text("--host", "US-East");
  cfg.participant_sites = cfg.host_site == "CH" || cfg.host_site == "UK-West"
                              ? core::europe_participant_sites(cfg.host_site)
                              : core::us_participant_sites(cfg.host_site);
  cfg.sessions = flags.integer("--sessions", 5, /*min=*/1);
  cfg.session_duration = seconds(flags.integer("--duration", 40, /*min=*/1));
  if (flags.has("--paid")) cfg.webex_tier = platform::WebexTier::kPaid;
  const std::string csv_path = flags.text("--csv", "");
  flags.reject_unread();
  const auto result = core::run_lag_benchmark(cfg);

  TextTable table{{"participant", "p50 lag (ms)", "p90 lag (ms)", "p50 RTT (ms)", "endpoints"}};
  for (const auto& p : result.participants) {
    table.add_row(
        {p.label, p.lags_ms.empty() ? "-" : TextTable::num(median(std::vector<double>(p.lags_ms)), 1),
         p.lags_ms.empty() ? "-" : TextTable::num(quantile(std::vector<double>(p.lags_ms), 0.9), 1),
         p.session_rtt_ms.empty()
             ? "-"
             : TextTable::num(median(std::vector<double>(p.session_rtt_ms)), 1),
         std::to_string(p.distinct_endpoints)});
  }
  std::printf("%s", table.render().c_str());

  if (!csv_path.empty()) {
    std::ofstream out{csv_path};
    CsvWriter csv{out};
    csv.row({"participant", "lag_ms"});
    for (const auto& p : result.participants) {
      for (double lag : p.lags_ms) csv.row({p.label, CsvWriter::num(lag)});
    }
    std::printf("wrote %zu CSV rows to %s\n", csv.rows_written(), csv_path.c_str());
  }
  return 0;
}

// qoe, bwcap and mobile run each session as its own world on a fixed
// per-scenario seed stream, and pool the sessions here.
int run_qoe(Flags& flags) {
  core::QoeBenchmarkConfig cfg;
  cfg.platform = parse_platform(flags);
  cfg.motion = parse_motion(flags);
  cfg.receiver_sites = core::us_qoe_receiver_sites(flags.integer("--receivers", 2));
  const int sessions = flags.integer("--sessions", 1, /*min=*/1);
  cfg.media_duration = seconds(flags.integer("--duration", 12, /*min=*/1));
  const std::string csv_path = flags.text("--csv", "");
  flags.reject_unread();
  RunningStats psnr, ssim, vifp, delivery, upload, download;
  for (int s = 0; s < sessions; ++s) {
    const auto r = core::run_qoe_session(cfg, 1 + static_cast<std::uint64_t>(s) * 6151);
    upload.add(r.upload_kbps);
    for (const core::QoeReceiverResult& rx : r.receivers) {
      download.add(rx.download_kbps);
      if (rx.has_delivery_ratio) delivery.add(rx.delivery_ratio);
      if (!rx.has_video_qoe) continue;
      psnr.add(rx.psnr);
      ssim.add(rx.ssim);
      vifp.add(rx.vifp);
    }
  }
  std::printf("PSNR %.1f dB  SSIM %.3f  VIFp %.3f  delivery %.2f\n", psnr.mean(), ssim.mean(),
              vifp.mean(), delivery.mean());
  std::printf("host upload %.0f Kbps, receiver download %.0f Kbps\n", upload.mean(),
              download.mean());
  if (!csv_path.empty()) {
    std::ofstream out{csv_path};
    CsvWriter csv{out};
    csv.row({"metric", "mean", "stddev"});
    csv.row({"psnr", CsvWriter::num(psnr.mean()), CsvWriter::num(psnr.stddev())});
    csv.row({"ssim", CsvWriter::num(ssim.mean()), CsvWriter::num(ssim.stddev())});
    csv.row({"vifp", CsvWriter::num(vifp.mean()), CsvWriter::num(vifp.stddev())});
    csv.row({"upload_kbps", CsvWriter::num(upload.mean()), CsvWriter::num(upload.stddev())});
    csv.row({"download_kbps", CsvWriter::num(download.mean()),
             CsvWriter::num(download.stddev())});
  }
  return 0;
}

int run_bwcap(Flags& flags) {
  core::QoeBenchmarkConfig cfg = core::bwcap_config(DataRate::unlimited());
  cfg.platform = parse_platform(flags);
  const int cap = flags.integer("--cap-kbps", 0, /*min=*/0);
  if (cap > 0) cfg.cap = DataRate::kbps(cap);
  const int sessions = flags.integer("--sessions", 1, /*min=*/1);
  cfg.media_duration = seconds(flags.integer("--duration", 12, /*min=*/1));
  flags.reject_unread();
  RunningStats psnr, ssim, mos, delivery, drops;
  for (int s = 0; s < sessions; ++s) {
    const auto r =
        core::run_qoe_session(cfg, 5 + static_cast<std::uint64_t>(s) * 4447).receivers.front();
    if (r.has_video_qoe) {
      psnr.add(r.psnr);
      ssim.add(r.ssim);
    }
    if (r.has_audio_qoe) mos.add(r.mos_lqo);
    if (r.has_delivery_ratio) delivery.add(r.delivery_ratio);
    drops.add(r.drop_fraction);
  }
  std::printf("cap %s: PSNR %.1f dB  SSIM %.3f  MOS-LQO %.2f  delivery %.2f  drops %.1f%%\n",
              cfg.cap.to_string().c_str(), psnr.mean(), ssim.mean(), mos.mean(), delivery.mean(),
              100.0 * drops.mean());
  return 0;
}

int run_mobile(Flags& flags) {
  core::MobileBenchmarkConfig cfg;
  cfg.platform = parse_platform(flags);
  cfg.scenario = parse_scenario(flags);
  const int repetitions = flags.integer("--repetitions", 2, /*min=*/1);
  cfg.duration = seconds(flags.integer("--duration", 45, /*min=*/1));
  flags.reject_unread();
  std::vector<double> s10_cpu, j3_cpu;
  RunningStats s10_download, j3_download, j3_battery;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto r = core::run_mobile_session(cfg, 9 + static_cast<std::uint64_t>(rep) * 2917);
    s10_cpu.insert(s10_cpu.end(), r.s10_cpu.begin(), r.s10_cpu.end());
    j3_cpu.insert(j3_cpu.end(), r.j3_cpu.begin(), r.j3_cpu.end());
    s10_download.add(r.s10_download_kbps);
    j3_download.add(r.j3_download_kbps);
    j3_battery.add(r.j3_battery_pct_per_hour);
  }
  std::printf("%s / %s:\n", std::string(platform_name(cfg.platform)).c_str(),
              std::string(scenario_name(cfg.scenario)).c_str());
  std::printf("  S10: CPU median %.0f%%, download %.0f Kbps\n", median(s10_cpu),
              s10_download.mean());
  std::printf("  J3:  CPU median %.0f%%, download %.0f Kbps, battery %.1f %%/h\n",
              median(j3_cpu), j3_download.mean(), j3_battery.mean());
  return 0;
}

// Header-free QoE inference over a saved capture: the estimator sees only
// record timestamps/lengths. `--platform` maps per-window bitrates onto that
// platform's tier ladder; the layering boundary stays intact because the
// ladder is resolved HERE and handed to the capture layer as plain numbers.
int run_infer(Flags& flags) {
  const std::string path = flags.text("--trace", "");
  capture::QoeInferConfig cfg;
  const int freeze_ms = flags.integer("--freeze-ms", 0);
  if (freeze_ms > 0) cfg.freeze_threshold = millis(freeze_ms);
  const int window_ms = flags.integer("--window-ms", 0);
  if (window_ms > 0) cfg.window = millis(window_ms);
  const int min_payload = flags.integer("--min-payload", 0);
  if (min_payload > 0) cfg.min_video_payload = min_payload;
  if (!flags.text("--platform", "").empty()) {
    for (const abr::Tier& tier : platform::tier_ladder(parse_platform(flags)).tiers) {
      cfg.tier_rates_bps.push_back(tier.rate.bits_per_second());
    }
  }
  const bool json = flags.has("--json");
  flags.reject_unread();
  if (path.empty()) {
    std::fprintf(stderr, "infer requires --trace <file.vctr>\n");
    return 2;
  }
  const capture::Trace trace = capture::read_trace_file(path);
  const capture::QoeInferencer inferencer{trace, cfg};
  const capture::QoeInferReport report = inferencer.analyze();
  if (json) {
    std::printf("%s", report.to_json().c_str());
    return 0;
  }
  std::printf("%s: %zu records, %lld video packets in %zu inferred frames\n", path.c_str(),
              trace.records.size(), static_cast<long long>(report.video_packets),
              report.frames.size());
  std::printf("overall: %.2f fps, %.0f Kbps video, median inter-frame %.1f ms, %zu freeze(s)\n",
              report.overall_fps, report.mean_video_kbps, report.median_interframe_ms,
              report.freezes.size());
  TextTable table{{"window start (ms)", "fps", "kbps", "tier"}};
  for (const auto& w : report.windows) {
    table.add_row({TextTable::num(w.start.millis(), 0), TextTable::num(w.fps, 1),
                   TextTable::num(w.video_kbps, 0),
                   w.tier >= 0 ? std::to_string(w.tier) : "-"});
  }
  std::printf("%s", table.render().c_str());
  for (const auto& f : report.freezes) {
    std::printf("freeze: %.0f ms -> %.0f ms (%.1f s)\n", f.start.millis(), f.end.millis(),
                f.duration().seconds());
  }
  return 0;
}

int run_dump(Flags& flags) {
  const std::string path = flags.text("--trace", "");
  capture::DumpOptions options;
  options.max_records = static_cast<std::size_t>(flags.integer("--max", 50));
  flags.reject_unread();
  if (path.empty()) {
    std::fprintf(stderr, "dump requires --trace <file.vctr>\n");
    return 2;
  }
  const auto trace = capture::read_trace_file(path);
  std::printf("%s\n", capture::summarize_trace(trace).c_str());
  std::printf("%s", capture::dump_trace_to_string(trace, options).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// report / profile / timeline: thin wrappers over the vc_cli renderers (pure
// text-in/text-out, unit-tested in tests_cli); this file only does the I/O.
// ---------------------------------------------------------------------------

int emit(const cli::RenderResult& result) {
  if (!result.out.empty()) std::printf("%s", result.out.c_str());
  if (!result.err.empty()) std::fprintf(stderr, "%s", result.err.c_str());
  return result.exit_code;
}

int run_report(const std::string& path, Flags& flags) {
  cli::ReportOptions options;
  options.filter = flags.text("--filter", "");
  options.list = flags.has("--list");
  options.cdf_base = flags.text("--cdf", "");
  flags.reject_unread();
  std::string text;
  if (!runner::read_text_file(path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  return emit(cli::render_report(path, text, options));
}

int run_profile(const std::string& path, Flags& flags) {
  cli::ProfileOptions options;
  options.top = static_cast<std::size_t>(flags.integer("--top", 15));
  options.chains = static_cast<std::size_t>(flags.integer("--chains", 3));
  options.filter = flags.text("--filter", "");
  flags.reject_unread();
  // A directory aggregates every <task>.trace.json in it (a runner
  // trace_dir); a file profiles just that trace.
  std::vector<std::string> paths;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > 11 && name.rfind(".trace.json") == name.size() - 11) {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
    if (paths.empty()) {
      std::fprintf(stderr, "%s: no *.trace.json files\n", path.c_str());
      return 2;
    }
  } else {
    paths.push_back(path);
  }
  std::vector<cli::TraceInput> traces;
  for (const std::string& p : paths) {
    cli::TraceInput input;
    input.label = p;
    if (!runner::read_text_file(p, &input.json_text)) {
      std::fprintf(stderr, "cannot read %s\n", p.c_str());
      return 2;
    }
    traces.push_back(std::move(input));
  }
  return emit(cli::render_profile(traces, options));
}

int run_timeline(const std::string& path, Flags& flags) {
  cli::TimelineOptions options;
  options.metric = flags.text("--metric", "");
  options.width = flags.integer("--width", 60);
  options.json = flags.has("--json");
  flags.reject_unread();
  std::string text;
  if (!runner::read_text_file(path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  return emit(cli::render_timeline(path, text, options));
}

void usage() {
  std::fprintf(stderr,
               "usage: vcbench_cli <lag|qoe|bwcap|mobile|dump|infer|report|profile|timeline>\n"
               "  lag    [--platform P] [--host SITE] [--sessions N] [--duration S] [--paid]\n"
               "         [--csv FILE]\n"
               "  qoe    [--platform P] [--receivers N] [--motion low|high] [--sessions N]\n"
               "         [--duration S] [--csv FILE]\n"
               "  bwcap  [--platform P] [--cap-kbps K] [--sessions N] [--duration S]\n"
               "  mobile [--platform P] [--scenario LM|HM|LM-View|LM-Video-View|LM-Off]\n"
               "         [--repetitions N] [--duration S]\n"
               "         P is zoom|webex|meet (default zoom); N >= 1\n"
               "  dump   --trace FILE [--max N]\n"
               "  infer  --trace FILE.vctr [--platform P] [--freeze-ms N] [--window-ms N]\n"
               "         [--min-payload B] [--json]   header-free QoE estimate from a capture\n"
               "  report RUN.json [--filter SUBSTR] [--cdf BASE] [--list]\n"
               "         render run-report tables/CDFs; --list enumerates metric keys\n"
               "  profile FILE.trace.json|TRACE_DIR [--top N] [--chains N] [--filter SUBSTR]\n"
               "         self/total time per span, per-record counts and durations,\n"
               "         busiest event-loop chains\n"
               "  timeline FILE.timeline.json [--metric SUBSTR] [--width N] [--json]\n"
               "         decoded metric series, sparklines, and SLO breach events\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  // Every failure mode — unknown subcommand, missing input file, malformed
  // JSON, bad flag values that make a benchmark throw — reports to stderr
  // and exits non-zero instead of aborting on an uncaught exception.
  try {
    if (command == "report" || command == "profile" || command == "timeline") {
      // These take a positional input file (or directory) before the flags.
      if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
        usage();
        return 2;
      }
      const std::string path = argv[2];
      Flags flags{argc, argv, 3};
      if (command == "report") return run_report(path, flags);
      if (command == "profile") return run_profile(path, flags);
      return run_timeline(path, flags);
    }
    Flags flags{argc, argv, 2};
    if (command == "lag") return run_lag(flags);
    if (command == "qoe") return run_qoe(flags);
    if (command == "bwcap") return run_bwcap(flags);
    if (command == "mobile") return run_mobile(flags);
    if (command == "dump") return run_dump(flags);
    if (command == "infer") return run_infer(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcbench_cli %s: %s\n", command.c_str(), e.what());
    return 2;
  }
  std::fprintf(stderr, "vcbench_cli: unknown subcommand '%s'\n", command.c_str());
  usage();
  return 2;
}
