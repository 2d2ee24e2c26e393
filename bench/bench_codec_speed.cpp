// Codec block-pipeline A/B gate: scalar kernels vs the best SIMD backend.
//
// Runs the same encode+decode workload (120 frames of a 128x96 tour-guide
// feed at 800 kbps) as one vcb::invisibility_gate: off is the retained
// scalar reference for every block step (SADs, residual, DCT, quantize,
// dequantize, IDCT, reconstruct), armed is the best vectorized backend this
// CPU supports; one set_dct_backend switches them all. Every pass's full
// output — encoded sizes, quantized coefficients, block modes, and decoded
// pixels — is FNV-hashed into its aggregate and must match scalar's
// byte-for-byte (exit 1): the dct8.h determinism contract enforced with a
// whole-pipeline workload rather than single blocks
// (tests/media/test_dct8.cpp covers each kernel).
//
// `--gate <ratio>` exits 2 when best(scalar) / best(simd) encode+decode wall
// clock falls below the ratio: CI runs --gate 1.20, "the vectorized path must
// beat the scalar reference by >=20%" — so only a real regression (or a
// silent fallback to scalar dispatch) trips it. The in-process A/B is
// deliberate: absolute baselines are too noisy on shared CI runners.
// `--out <path>` writes the gate report (default
// bench_codec_speed.report.json).
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

constexpr int kWidth = 128;
constexpr int kHeight = 96;
constexpr int kFrames = 120;

/// Encodes then decodes kFrames frames cycling through `feed_frames`;
/// returns the FNV digest of every encoded and decoded byte.
std::uint64_t run_trial(const std::vector<Frame>& feed_frames) {
  VideoEncoder::Config cfg;
  cfg.target_bitrate = DataRate::kbps(800);
  cfg.fps = 15.0;
  VideoEncoder enc{kWidth, kHeight, cfg};
  VideoDecoder dec{kWidth, kHeight};

  std::vector<std::shared_ptr<EncodedFrame>> encoded;
  encoded.reserve(kFrames);
  for (int i = 0; i < kFrames; ++i) {
    encoded.push_back(enc.encode(feed_frames[static_cast<std::size_t>(i) % feed_frames.size()]));
  }
  for (const auto& f : encoded) dec.decode(*f);

  std::uint64_t digest = vcb::kFnvBasis;
  for (const auto& f : encoded) {
    fnv_mix(digest, static_cast<std::uint64_t>(f->bytes));
    fnv_mix(digest, static_cast<std::uint64_t>(f->skip_blocks));
    for (const std::int16_t c : f->coeffs) {
      fnv_mix(digest, static_cast<std::uint64_t>(static_cast<std::uint16_t>(c)));
    }
    for (const BlockMode m : f->modes) fnv_mix(digest, static_cast<std::uint64_t>(m));
  }
  const Frame& last = dec.current();
  for (std::size_t i = 0; i < last.size(); ++i) fnv_mix(digest, last.data()[i]);
  return digest;
}

}  // namespace

int main(int argc, char** argv) {
  vc::Flags flags{argc, argv};
  const int rounds = flags.integer("--rounds", 7, /*min=*/3);
  const double gate = flags.number("--gate", 0.0);
  const std::string out_path = flags.text("--out", "bench_codec_speed.report.json");
  flags.reject_unread();

  const DctBackend best = best_dct_backend();
  std::printf("codec block-pipeline A/B: %dx%d, %d frames/pass, %d rounds, simd backend=%s\n",
              kWidth, kHeight, kFrames, rounds, dct_backend_name(best));

  // Feed rendering is outside the timed region: the gate measures the codec,
  // and both sides must see bit-identical input pixels.
  TourGuideFeed feed{{kWidth, kHeight, 15.0, 3}};
  std::vector<Frame> feed_frames;
  for (int i = 0; i < 10; ++i) feed_frames.push_back(feed.frame_at(i));

  const auto make_task = [&](bool armed) -> runner::ExperimentRunner::Task {
    // The dispatch is process-wide: switch it here, before the pass starts.
    set_dct_backend(armed ? best : DctBackend::kScalar);
    return [&feed_frames](runner::SessionContext& ctx) {
      vcb::sample_digest(ctx, "codec.digest", run_trial(feed_frames));
    };
  };
  const int code =
      vcb::invisibility_gate("codec_speed_gate", make_task, /*n=*/1, /*base_seed=*/7, rounds, gate)
          .finish(out_path);
  return code == 3 ? 2 : code;
}
