// Codec transform A/B benchmark + scalar/SIMD equivalence gate (PR 7).
//
// Runs the exact same encode+decode workload through the retained scalar
// DCT reference and the best vectorized backend this CPU supports,
// interleaved (A/B/A/B..., defeating thermal and noise drift), and reports
// median wall-clock per mode. Every mode's full output — encoded sizes,
// quantized coefficients, block modes, and decoded pixels — is FNV-hashed
// and must match the scalar mode byte-for-byte: the dct8.h determinism
// contract enforced with a whole-pipeline workload rather than single
// blocks (tests/media/test_dct8.cpp covers those exhaustively).
//
// `--gate <ratio>` makes the binary exit non-zero when median(scalar) /
// median(simd) falls below the ratio: CI runs --gate 1.20, "the vectorized
// path must beat the scalar reference by >=20%" — far under the ~1.8×
// measured on AVX machines, so only a real regression (or a silent fallback
// to scalar dispatch) trips it. Exit codes: 1 = digest divergence
// (scalar/SIMD disagree — determinism regression), 2 = perf gate.
// `--out <path>` writes the machine-readable report (default
// BENCH_PR7.json in the CWD). The in-process A/B is deliberate: absolute
// baselines are too noisy on shared CI runners. The checked-in repo-root
// BENCH_PR7.json additionally records the before/after-this-PR medians of
// BM_VideoEncode/BM_VideoDecode, measured against a parent-commit build of
// bench_micro the same interleaved way.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "media/dct8.h"
#include "media/feeds.h"
#include "media/video_codec.h"
#include "runner/experiment_runner.h"

namespace {

using namespace vc;
using namespace vc::media;
using vcb::fnv_mix;
using vcb::kFnvBasis;

struct TrialResult {
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
  std::uint64_t digest = 0;
};

struct Mode {
  std::string name;
  DctBackend backend;
  std::vector<double> encode_seconds;
  std::vector<double> decode_seconds;
  std::uint64_t digest = 0;
};

TrialResult run_trial(const std::vector<Frame>& feed_frames, int frames, int width, int height) {
  VideoEncoder::Config cfg;
  cfg.target_bitrate = DataRate::kbps(800);
  cfg.fps = 15.0;
  VideoEncoder enc{width, height, cfg};
  VideoDecoder dec{width, height};

  TrialResult out{};
  out.digest = kFnvBasis;
  std::vector<std::shared_ptr<EncodedFrame>> encoded;
  encoded.reserve(static_cast<std::size_t>(frames));

  const auto e0 = std::chrono::steady_clock::now();
  for (int i = 0; i < frames; ++i) {
    encoded.push_back(enc.encode(feed_frames[static_cast<std::size_t>(i) % feed_frames.size()]));
  }
  const auto e1 = std::chrono::steady_clock::now();
  for (int i = 0; i < frames; ++i) dec.decode(*encoded[static_cast<std::size_t>(i)]);
  const auto e2 = std::chrono::steady_clock::now();

  out.encode_seconds = std::chrono::duration<double>(e1 - e0).count();
  out.decode_seconds = std::chrono::duration<double>(e2 - e1).count();
  for (const auto& f : encoded) {
    fnv_mix(out.digest, static_cast<std::uint64_t>(f->bytes));
    fnv_mix(out.digest, static_cast<std::uint64_t>(f->skip_blocks));
    for (const std::int16_t c : f->coeffs) {
      fnv_mix(out.digest, static_cast<std::uint64_t>(static_cast<std::uint16_t>(c)));
    }
    for (const BlockMode m : f->modes) fnv_mix(out.digest, static_cast<std::uint64_t>(m));
  }
  const Frame& last = dec.current();
  for (std::size_t i = 0; i < last.size(); ++i) fnv_mix(out.digest, last.data()[i]);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int width = vcb::int_flag(argc, argv, "--width", 128);
  const int height = vcb::int_flag(argc, argv, "--height", 96);
  const int frames = std::max(8, vcb::int_flag(argc, argv, "--frames", 120));
  const int rounds = std::max(3, vcb::int_flag(argc, argv, "--rounds", 7));
  const double gate = vcb::flag_double(argc, argv, "--gate", 0.0);
  const std::string out_path = vcb::flag_string(argc, argv, "--out", "BENCH_PR7.json");

  const DctBackend best = best_dct_backend();
  std::printf("codec transform A/B: %dx%d, %d frames/trial, %d rounds, simd backend=%s, gate=%.2f\n",
              width, height, frames, rounds, dct_backend_name(best), gate);

  // Feed rendering is outside the timed region: the bench measures the
  // codec, and both modes must see bit-identical input pixels.
  TourGuideFeed feed{{width, height, 15.0, 3}};
  std::vector<Frame> feed_frames;
  for (int i = 0; i < 10; ++i) feed_frames.push_back(feed.frame_at(i));

  std::vector<Mode> modes;
  modes.push_back({"scalar", DctBackend::kScalar, {}, {}, 0});
  modes.push_back({std::string{"simd-"} + dct_backend_name(best), best, {}, {}, 0});

  // One untimed warm-up per mode, then interleaved timed rounds.
  for (auto& m : modes) {
    set_dct_backend(m.backend);
    m.digest = run_trial(feed_frames, frames, width, height).digest;
  }
  for (int r = 0; r < rounds; ++r) {
    for (auto& m : modes) {
      set_dct_backend(m.backend);
      const TrialResult t = run_trial(feed_frames, frames, width, height);
      m.encode_seconds.push_back(t.encode_seconds);
      m.decode_seconds.push_back(t.decode_seconds);
      if (t.digest != m.digest) {
        std::printf("FAIL: %s digest unstable across rounds\n", m.name.c_str());
        return 1;
      }
    }
  }
  set_dct_backend(best);

  const bool identical = modes[1].digest == modes[0].digest;

  const double enc_scalar = median(modes[0].encode_seconds);
  const double enc_simd = median(modes[1].encode_seconds);
  const double dec_scalar = median(modes[0].decode_seconds);
  const double dec_simd = median(modes[1].decode_seconds);
  const double enc_speedup = enc_simd > 0 ? enc_scalar / enc_simd : 0.0;
  const double dec_speedup = dec_simd > 0 ? dec_scalar / dec_simd : 0.0;

  TextTable table{{"mode", "encode med (ms)", "enc frames/s", "decode med (ms)", "dec frames/s"}};
  for (const auto& m : modes) {
    const double em = median(m.encode_seconds);
    const double dm = median(m.decode_seconds);
    table.add_row({m.name, TextTable::num(em * 1e3, 2),
                   TextTable::num(em > 0 ? frames / em : 0.0, 0), TextTable::num(dm * 1e3, 2),
                   TextTable::num(dm > 0 ? frames / dm : 0.0, 0)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("encode speedup %.3fx, decode speedup %.3fx, outputs byte-identical: %s\n",
              enc_speedup, dec_speedup, identical ? "yes" : "NO — determinism regression!");

  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"benchmark\": \"codec_transform_ab\",\n"
                "  \"frame\": \"%dx%d\",\n"
                "  \"frames_per_trial\": %d,\n"
                "  \"rounds\": %d,\n"
                "  \"simd_backend\": \"%s\",\n"
                "  \"encode_median_seconds\": {\"scalar\": %.6f, \"simd\": %.6f},\n"
                "  \"decode_median_seconds\": {\"scalar\": %.6f, \"simd\": %.6f},\n"
                "  \"encode_speedup\": %.3f,\n"
                "  \"decode_speedup\": %.3f,\n"
                "  \"outputs_byte_identical\": %s,\n"
                "  \"gate\": %.2f\n"
                "}\n",
                width, height, frames, rounds, dct_backend_name(best), enc_scalar, enc_simd,
                dec_scalar, dec_simd, enc_speedup, dec_speedup, identical ? "true" : "false",
                gate);
  if (runner::write_text_file(out_path, buf)) {
    std::printf("report written to %s\n", out_path.c_str());
  }

  if (!identical) {
    std::printf("FAIL: scalar and %s outputs diverge\n", modes[1].name.c_str());
    return 1;
  }
  if (gate > 0.0 && enc_speedup < gate) {
    std::printf("FAIL: encode speedup %.3fx below gate %.2fx\n", enc_speedup, gate);
    return 2;
  }
  return 0;
}
