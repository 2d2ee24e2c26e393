// Bit-equality suite for the vectorized block kernels against the retained
// scalar reference (dct8.h's determinism contract). Every comparison is
// memcmp over the raw outputs: not "close", identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "media/dct8.h"
#include "media/feeds.h"
#include "media/video_codec.h"

namespace vc::media {
namespace {

using Block = std::array<double, 64>;
using QBlock = std::array<std::int16_t, 64>;

const BlockKernels& scalar() { return *block_kernels(DctBackend::kScalar); }

std::vector<DctBackend> simd_backends() {
  std::vector<DctBackend> out;
  if (dct_backend_available(DctBackend::kAvx)) out.push_back(DctBackend::kAvx);
  return out;
}

// Restores the startup dispatch even when an assertion fails mid-test.
struct BackendGuard {
  ~BackendGuard() { set_dct_backend(best_dct_backend()); }
};

void expect_identical(const Block& in, DctBackend backend) {
  const BlockKernels& k = *block_kernels(backend);
  Block ref_f{}, vec_f{}, ref_i{}, vec_i{};
  scalar().dct(in.data(), ref_f.data());
  k.dct(in.data(), vec_f.data());
  EXPECT_EQ(std::memcmp(ref_f.data(), vec_f.data(), sizeof(Block)), 0)
      << "forward DCT diverges on backend " << dct_backend_name(backend);
  // Run the inverse on the (identical) coefficients too, so the round trip
  // exercises both table layouts.
  scalar().idct(ref_f.data(), ref_i.data());
  k.idct(ref_f.data(), vec_i.data());
  EXPECT_EQ(std::memcmp(ref_i.data(), vec_i.data(), sizeof(Block)), 0)
      << "inverse DCT diverges on backend " << dct_backend_name(backend);
}

// An 8×8 pixel block inside a wider raster, so every kernel walks a real
// stride rather than 8 contiguous rows.
constexpr int kStride = 24;
using Pixels = std::array<std::uint8_t, 8 * kStride>;

Pixels random_pixels(Rng& rng) {
  Pixels p{};
  for (auto& v : p) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

// Both SADs, and the codec's mode decision from them, on every backend.
void expect_sads_identical(const Pixels& a, const Pixels& b, const BlockKernels& k) {
  const std::int32_t flat = scalar().sad_flat(a.data(), kStride);
  EXPECT_EQ(k.sad_flat(a.data(), kStride), flat);
  EXPECT_EQ(k.sad(a.data(), b.data(), kStride, INT32_MAX),
            scalar().sad(a.data(), b.data(), kStride, INT32_MAX));
  // Bailing at the intra SAD: the comparison agrees, and so does the value
  // whenever it is at most the bail.
  const std::int32_t ref = scalar().sad(a.data(), b.data(), kStride, flat);
  const std::int32_t got = k.sad(a.data(), b.data(), kStride, flat);
  EXPECT_EQ(got <= flat, ref <= flat);
  if (ref <= flat) {
    EXPECT_EQ(got, ref);
  }
}

void expect_residuals_identical(const Pixels& a, const Pixels& pred, const BlockKernels& k) {
  for (const std::uint8_t* p : {pred.data(), static_cast<const std::uint8_t*>(nullptr)}) {
    Block ref{}, got{};
    scalar().residual(a.data(), p, kStride, ref.data());
    k.residual(a.data(), p, kStride, got.data());
    EXPECT_EQ(std::memcmp(ref.data(), got.data(), sizeof(Block)), 0)
        << (p == nullptr ? "intra" : "inter") << " residual diverges";
  }
}

void expect_quantize_identical(const Block& c, const Block& step, const BlockKernels& k) {
  QBlock ref{}, got{};
  const bool ref_nonzero = scalar().quantize(c.data(), step.data(), ref.data());
  const bool got_nonzero = k.quantize(c.data(), step.data(), got.data());
  EXPECT_EQ(got_nonzero, ref_nonzero);
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), sizeof(QBlock)), 0) << "quantize diverges";
}

void expect_dequantize_identical(const QBlock& q, const Block& step, const BlockKernels& k) {
  Block ref{}, got{};
  scalar().dequantize(q.data(), step.data(), ref.data());
  k.dequantize(q.data(), step.data(), got.data());
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), sizeof(Block)), 0) << "dequantize diverges";
}

// Intra and inter, into a separate block and in place (the encoder's use).
// Pixels right of the block start as `pred` everywhere and must stay so.
void expect_reconstruct_identical(const Block& rec, const Pixels& pred, const BlockKernels& k) {
  Pixels ref_dst = pred;
  Pixels got_dst = pred;
  scalar().reconstruct(rec.data(), nullptr, ref_dst.data(), kStride);
  k.reconstruct(rec.data(), nullptr, got_dst.data(), kStride);
  EXPECT_EQ(ref_dst, got_dst) << "intra reconstruct diverges";
  scalar().reconstruct(rec.data(), pred.data(), ref_dst.data(), kStride);
  k.reconstruct(rec.data(), pred.data(), got_dst.data(), kStride);
  EXPECT_EQ(ref_dst, got_dst) << "inter reconstruct diverges";
  Pixels in_place = pred;
  k.reconstruct(rec.data(), in_place.data(), in_place.data(), kStride);
  EXPECT_EQ(in_place, ref_dst) << "in-place reconstruct diverges";
}

TEST(Dct8, ScalarBackendIsTheReference) {
  BackendGuard guard;
  ASSERT_TRUE(set_dct_backend(DctBackend::kScalar));
  EXPECT_EQ(&block_kernels(), block_kernels(DctBackend::kScalar));
  Block in{};
  Rng rng{2026};
  for (auto& v : in) v = rng.uniform(-255.0, 255.0);
  Block a{}, b{};
  block_kernels().dct(in.data(), a.data());
  scalar().dct(in.data(), b.data());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(Block)), 0);
}

TEST(Dct8, BestBackendIsVectorizedOnX86) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const bool avx = __builtin_cpu_supports("avx") != 0;
  EXPECT_EQ(dct_backend_available(DctBackend::kAvx), avx);
  EXPECT_EQ(best_dct_backend(), avx ? DctBackend::kAvx : DctBackend::kScalar);
#else
  EXPECT_FALSE(dct_backend_available(DctBackend::kAvx));
  EXPECT_EQ(best_dct_backend(), DctBackend::kScalar);
#endif
  EXPECT_TRUE(dct_backend_available(DctBackend::kScalar));
  EXPECT_TRUE(dct_backend_available(best_dct_backend()));
  EXPECT_EQ(active_dct_backend(), best_dct_backend());
  EXPECT_STRNE(dct_backend_name(best_dct_backend()), "?");
}

TEST(Dct8, UnavailableBackendLeavesDispatchUntouched) {
  BackendGuard guard;
  const DctBackend before = active_dct_backend();
  const BlockKernels* kernels = &block_kernels();
  // No enum value past kAvx names a backend, on any host.
  const auto bogus = static_cast<DctBackend>(2);
  EXPECT_FALSE(dct_backend_available(bogus));
  EXPECT_EQ(block_kernels(bogus), nullptr);
  EXPECT_STREQ(dct_backend_name(bogus), "?");
  for (DctBackend b : {DctBackend::kAvx, bogus}) {
    if (!dct_backend_available(b)) {
      EXPECT_FALSE(set_dct_backend(b));
      EXPECT_EQ(active_dct_backend(), before);
      EXPECT_EQ(&block_kernels(), kernels);
    }
  }
}

TEST(Dct8, RandomBlocksBitIdenticalOnEveryBackend) {
  Rng rng{7321};
  for (DctBackend backend : simd_backends()) {
    for (int rep = 0; rep < 2000; ++rep) {
      Block in{};
      // Mix residual-like values (pixel − prediction ∈ [−255, 255]) with
      // occasional huge coefficients to stress exponent ranges.
      for (auto& v : in) {
        v = rep % 5 == 4 ? rng.uniform(-2.0e5, 2.0e5) : rng.uniform(-255.0, 255.0);
      }
      expect_identical(in, backend);
    }
  }
}

TEST(Dct8, ExtremeAndStructuredBlocksBitIdentical) {
  std::vector<Block> cases;
  Block b{};
  cases.push_back(b);  // all zero
  b.fill(255.0);
  cases.push_back(b);  // max positive residual
  b.fill(-255.0);
  cases.push_back(b);  // max negative residual
  // Single impulses at every position — isolates each basis column.
  for (int i = 0; i < 64; ++i) {
    Block imp{};
    imp[i] = 255.0;
    cases.push_back(imp);
    imp[i] = -128.0;
    cases.push_back(imp);
  }
  // Checkerboards (highest spatial frequency) and gradients.
  Block checker{}, grad{};
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      checker[y * 8 + x] = ((x + y) & 1) != 0 ? 255.0 : -255.0;
      grad[y * 8 + x] = static_cast<double>(x * 8 + y) - 31.5;
    }
  }
  cases.push_back(checker);
  cases.push_back(grad);
  // Denormal-scale and huge-magnitude inputs: the lanes must round the same
  // even at the edges of the double range.
  Block tiny{}, huge{};
  for (int i = 0; i < 64; ++i) {
    tiny[i] = (i % 2 != 0 ? 1.0 : -1.0) * 1e-300;
    huge[i] = (i % 3 != 0 ? 1.0 : -1.0) * 1e300;
  }
  cases.push_back(tiny);
  cases.push_back(huge);
  for (DctBackend backend : simd_backends()) {
    for (const Block& c : cases) expect_identical(c, backend);
  }
}

// Every pixel and coefficient kernel on random input: pixels over the full
// byte range, coefficients of the size the codec's residual DCT produces,
// and the frequency-weighted steps of the quantizer range the platforms use.
TEST(Dct8, BlockKernelsMatchScalarOnRandomBlocks) {
  Rng rng{4242};
  for (DctBackend backend : simd_backends()) {
    const BlockKernels& k = *block_kernels(backend);
    for (int rep = 0; rep < 2000; ++rep) {
      const Pixels a = random_pixels(rng);
      Pixels b = random_pixels(rng);
      // Every fourth pair is a near-copy, so the inter path wins the SADs.
      if (rep % 4 == 0) {
        for (std::size_t i = 0; i < b.size(); ++i) {
          const int shifted = a[i] + static_cast<int>(rng.uniform_int(-3, 3));
          b[i] = static_cast<std::uint8_t>(std::clamp(shifted, 0, 255));
        }
      }
      expect_sads_identical(a, b, k);
      expect_residuals_identical(a, b, k);

      const double qstep = rng.uniform(0.1, 160.0);
      Block c{}, step{}, rec{};
      QBlock q{};
      for (int i = 0; i < 64; ++i) {
        step[i] = qstep * (1.0 + 0.12 * (i % 8 + i / 8));
        c[i] = rng.uniform(-2040.0, 2040.0);
        q[i] = static_cast<std::int16_t>(rng.uniform_int(INT16_MIN, INT16_MAX));
        rec[i] = rng.uniform(-300.0, 300.0);
      }
      expect_quantize_identical(c, step, k);
      expect_dequantize_identical(q, step, k);
      expect_reconstruct_identical(rec, b, k);
    }
  }
}

// The rounding edges: every ±x.5 tie and both of its nextafter neighbours,
// ±32767.5 and ±32768.5 (where the result saturates), values far past the
// clamp, and signed zeros. With a unit step the quotient is the value
// itself; a step of 0.5 makes the division produce the ties.
TEST(Dct8, QuantizeTiesAndSaturationMatchScalar) {
  std::vector<double> values = {0.0, -0.0, 32767.5, -32767.5, 32768.5, -32768.5, 32768.0,
                                -32768.0, 32769.0, -32769.0, 40000.0, -40000.0, 1e300, -1e300};
  for (int t = 0; t < 40; ++t) {
    const double tie = t + 0.5;
    for (const double v : {tie, std::nextafter(tie, 0.0), std::nextafter(tie, 1e9)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  for (const double v : {32767.5, 32768.5}) {
    for (const double n : {std::nextafter(v, 0.0), std::nextafter(v, 1e9)}) {
      values.push_back(n);
      values.push_back(-n);
    }
  }
  for (DctBackend backend : simd_backends()) {
    const BlockKernels& k = *block_kernels(backend);
    for (const double step_value : {1.0, 0.5}) {
      Block step{};
      step.fill(step_value);
      // Each value in every lane position across the blocks.
      for (std::size_t first = 0; first < values.size(); ++first) {
        Block c{};
        for (int i = 0; i < 64; ++i) c[i] = values[(first + i) % values.size()];
        expect_quantize_identical(c, step, k);
      }
    }
    // All-zero blocks report no nonzero coefficient, and a single tie that
    // rounds away from zero at any position reports one.
    Block step{};
    step.fill(1.0);
    Block c{};
    expect_quantize_identical(c, step, k);
    c.fill(0.49);
    expect_quantize_identical(c, step, k);
    for (int i = 0; i < 64; ++i) {
      Block one{};
      one[i] = i % 2 == 0 ? 0.5 : -0.5;
      expect_quantize_identical(one, step, k);
      QBlock q{};
      EXPECT_TRUE(k.quantize(one.data(), step.data(), q.data()));
    }
  }
}

// The SKIP threshold: inter SADs at kSkipSad − 1, kSkipSad and kSkipSad + 1
// (96, video_codec.cpp), spread over rows so the scalar bail stops at
// different rows, against intra SADs on both sides of them.
TEST(Dct8, SadAtSkipThresholdMatchesScalar) {
  constexpr int kSkipSad = 96;
  for (DctBackend backend : simd_backends()) {
    const BlockKernels& k = *block_kernels(backend);
    for (const int target : {kSkipSad - 1, kSkipSad, kSkipSad + 1}) {
      for (const int base : {0, 126, 200, 255}) {
        for (int rows = 1; rows <= 8; ++rows) {
          Pixels ref{};
          ref.fill(static_cast<std::uint8_t>(base));
          Pixels a = ref;
          // Distribute `target` units of difference over the first `rows`.
          int left = target;
          for (int i = 0; left > 0; i = (i + 1) % (rows * 8)) {
            const int x = i % 8;
            const int y = i / 8;
            std::uint8_t& px = a[static_cast<std::size_t>(y) * kStride + x];
            const int room = base < 128 ? 255 - px : px;
            if (room == 0) continue;
            const int d = std::min({left, room, 4});
            px = static_cast<std::uint8_t>(base < 128 ? px + d : px - d);
            left -= d;
          }
          ASSERT_EQ(scalar().sad(a.data(), ref.data(), kStride, INT32_MAX), target);
          expect_sads_identical(a, ref, k);
          for (const std::int32_t bail : {target - 1, target, target + 1}) {
            const std::int32_t s = scalar().sad(a.data(), ref.data(), kStride, bail);
            const std::int32_t v = k.sad(a.data(), ref.data(), kStride, bail);
            EXPECT_EQ(v <= bail, s <= bail);
            EXPECT_EQ(v <= bail && v < kSkipSad, s <= bail && s < kSkipSad);
          }
        }
      }
    }
  }
}

// Reconstruction at both clamps: residuals that land (pred + rec) + 0.5 just
// below 0, on it, just above 255 and on it, with nextafter neighbours, over
// flat intra prediction and inter predictions of 0, 255 and a ramp.
TEST(Dct8, ReconstructClampsMatchScalar) {
  std::vector<double> offsets;  // added to -pred - 0.5 and to 255.5 - pred
  for (const double d : {-1.0, -0.5, 0.0, 0.5, 1.0, -1e-9, 1e-9, -300.0, 300.0}) {
    offsets.push_back(d);
  }
  std::vector<Pixels> preds;
  Pixels p{};
  preds.push_back(p);
  p.fill(255);
  preds.push_back(p);
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = static_cast<std::uint8_t>(i * 37);
  preds.push_back(p);
  for (DctBackend backend : simd_backends()) {
    const BlockKernels& k = *block_kernels(backend);
    for (const Pixels& pred : preds) {
      for (std::size_t first = 0; first < offsets.size(); ++first) {
        for (const bool top : {false, true}) {
          Block rec{};
          for (int i = 0; i < 64; ++i) {
            const double off = offsets[(first + i) % offsets.size()];
            const double px = pred[static_cast<std::size_t>(i / 8) * kStride + i % 8];
            const double edge = top ? 255.5 - px : -px - 0.5;
            rec[i] = i % 3 == 0 ? std::nextafter(edge, 1e9) + off
                     : i % 3 == 1 ? std::nextafter(edge, -1e9) + off
                                  : edge + off;
          }
          expect_reconstruct_identical(rec, pred, k);
        }
      }
    }
  }
}

// (pred + rec) + 0.5 and pred + (rec + 0.5) truncate differently for a few
// pixels, e.g. pred 2 or 3 with rec five ulps below 0.5, so a kernel that
// re-associated the sum would fail here: every pred 0..255 against rec just
// below 0.5 by one to eight ulps.
TEST(Dct8, ReconstructSumsInScalarOrder) {
  for (DctBackend backend : simd_backends()) {
    const BlockKernels& k = *block_kernels(backend);
    for (int ulps = 1; ulps <= 8; ++ulps) {
      double r = 0.5;
      for (int i = 0; i < ulps; ++i) r = std::nextafter(r, 0.0);
      Block rec{};
      rec.fill(r);
      for (int first = 0; first < 256; first += 64) {
        Pixels pred{};
        for (int i = 0; i < 64; ++i) {
          pred[static_cast<std::size_t>(i / 8) * kStride + i % 8] =
              static_cast<std::uint8_t>(first + i);
        }
        expect_reconstruct_identical(rec, pred, k);
      }
    }
  }
}

// One texture pixel's four inputs (coarse top, bottom; fine top, bottom).
using TexelInputs = std::array<double, 4>;

// Inputs that land the blend in every region the kernel must match: past
// both clamps and on both edges (one edge value for all four), anywhere
// (random reals, integers and edges), and within a few ulps of an integer,
// where truncation shows any change in the order of operations: one integer
// for all four, as in a flat patch of lattice values; equal integers above
// and below; or one octave flat at an integer t and the other's bottom
// solved from its weight so that its blend lands on t, then nudged by up to
// two ulps.
TexelInputs texel_inputs(Rng& rng, const std::vector<double>& edges, double cs, double fs) {
  const auto any = [&] {
    switch (rng.index(3)) {
      case 0: return rng.uniform(-50.0, 305.0);
      case 1: return static_cast<double>(rng.uniform_int(0, 255));
      default: return edges[rng.index(edges.size())];
    }
  };
  const auto level = [&] { return static_cast<double>(rng.uniform_int(0, 255)); };
  // {top, bottom} whose blend at weight s (> 0) lands within two ulps of t.
  const auto solved = [&](double t, double s) {
    const double top = rng.uniform(0.0, 255.0);
    double bottom = (t - top * (1 - s)) / s;
    for (std::int64_t i = rng.uniform_int(-2, 2); i != 0; i += i < 0 ? 1 : -1) {
      bottom = std::nextafter(bottom, i < 0 ? -1e9 : 1e9);
    }
    return std::array<double, 2>{top, bottom};
  };
  const double t = level();
  switch (rng.index(6)) {
    case 0: {
      const double e = edges[rng.index(edges.size())];
      return {e, e, e, e};
    }
    case 1: return {any(), any(), any(), any()};
    case 2: return {t, t, t, t};
    case 3: {
      const double f = level();
      return {t, t, f, f};
    }
    case 4:
      if (cs > 0.0) {
        const auto c = solved(t, cs);
        return {c[0], c[1], t, t};
      }
      return {t, t, t, t};
    default:
      if (fs > 0.0) {
        const auto f = solved(t, fs);
        return {t, t, f[0], f[1]};
      }
      return {t, t, t, t};
  }
}

// The texture row kernel on rows 1-9 pixels wide: one and two 4- and
// 8-pixel steps, and every scalar tail, at weights 0, 1 and between (random,
// since whether a blend lands an ulp off depends on the weight). Bytes past
// the row stay untouched.
TEST(Dct8, TextureRowMatchesScalar) {
  constexpr int kMaxN = 9;
  constexpr int kSlack = 7;
  const std::vector<double> edges{-300.0, -1.0, -1e-9, 0.0, 1e-9, 0.5,   254.5,
                                  254.999, 255.0, 255.0 + 1e-9, 256.0, 1000.0};
  Rng rng{4242};
  const auto weight = [&] {
    switch (rng.index(3)) {
      case 0: return 0.0;
      case 1: return 1.0;
      default: return rng.uniform(0.0, 1.0);
    }
  };
  bool saw_floor = false;
  bool saw_ceiling = false;
  for (DctBackend backend : simd_backends()) {
    const BlockKernels& k = *block_kernels(backend);
    for (int n = 1; n <= kMaxN; ++n) {
      for (int trial = 0; trial < 2000; ++trial) {
        const double cs = weight();
        const double fs = weight();
        std::array<std::array<double, kMaxN>, 4> v{};
        for (int x = 0; x < n; ++x) {
          const TexelInputs in = texel_inputs(rng, edges, cs, fs);
          for (std::size_t r = 0; r < v.size(); ++r) v[r][x] = in[r];
        }
        const NoiseRow coarse{v[0].data(), v[1].data(), cs};
        const NoiseRow fine{v[2].data(), v[3].data(), fs};
        std::array<std::uint8_t, kMaxN + kSlack> ref{};
        std::array<std::uint8_t, kMaxN + kSlack> got{};
        ref.fill(0xA5);
        got.fill(0xA5);
        scalar().texture_row(coarse, fine, ref.data(), n);
        k.texture_row(coarse, fine, got.data(), n);
        EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size()), 0)
            << dct_backend_name(backend) << " n=" << n << " cs=" << cs << " fs=" << fs
            << " trial " << trial;
        for (int x = 0; x < n; ++x) {
          saw_floor = saw_floor || ref[x] == 0;
          saw_ceiling = saw_ceiling || ref[x] == 255;
        }
      }
    }
  }
  if (!simd_backends().empty()) {
    EXPECT_TRUE(saw_floor);
    EXPECT_TRUE(saw_ceiling);
  }
}

// Whole feeds, not just rows: a tour guide rendered through each backend's
// row kernel is the scalar backend's frame, at the vector widths, one past
// them, and the congested cell's 64x48.
TEST(Dct8, TourGuideFramesBitIdenticalOnEveryBackend) {
  BackendGuard guard;
  for (const int w : {1, 3, 4, 5, 8, 9, 64}) {
    const TourGuideFeed feed{{w, w == 64 ? 48 : 6, 15.0, 5}};
    ASSERT_TRUE(set_dct_backend(DctBackend::kScalar));
    std::vector<Frame> ref;
    for (std::int64_t i = 0; i < 80; i += 7) ref.push_back(feed.frame_at(i));
    for (DctBackend backend : simd_backends()) {
      ASSERT_TRUE(set_dct_backend(backend));
      for (std::size_t j = 0; j < ref.size(); ++j) {
        EXPECT_EQ(feed.frame_at(static_cast<std::int64_t>(j) * 7), ref[j])
            << dct_backend_name(backend) << " w=" << w << " frame " << j * 7;
      }
    }
  }
}

// Whole-encoder equality across the quantizer range the platforms actually
// use: pinning min_qstep == max_qstep forces every pass to run at that
// step, and the encoded stream (sizes, coefficients, modes, recon) must be
// byte-identical whichever backend ran the block kernels. The reference
// side runs every block loop scalar, not only the transforms.
TEST(Dct8, FullEncoderBitIdenticalAcrossQstepGrid) {
  BackendGuard guard;
  constexpr int kW = 64;
  constexpr int kH = 64;
  const auto backends = simd_backends();
  for (double q : {0.1, 0.5, 2.0, 10.0, 40.0, 160.0}) {
    VideoEncoder::Config cfg;
    cfg.target_bitrate = DataRate::kbps(600);
    cfg.fps = 10.0;
    cfg.min_qstep = q;
    cfg.max_qstep = q;

    TourGuideFeed feed{{kW, kH, 10.0, 11}};
    std::vector<Frame> frames;
    for (int i = 0; i < 8; ++i) frames.push_back(feed.frame_at(i));

    ASSERT_TRUE(set_dct_backend(DctBackend::kScalar));
    ASSERT_EQ(&block_kernels(), block_kernels(DctBackend::kScalar));
    VideoEncoder ref_enc{kW, kH, cfg};
    VideoDecoder ref_dec{kW, kH};
    std::vector<std::shared_ptr<EncodedFrame>> ref_frames;
    std::vector<Frame> ref_decoded;
    for (const Frame& f : frames) {
      ref_frames.push_back(ref_enc.encode(f));
      ref_decoded.push_back(ref_dec.decode(*ref_frames.back()));
    }

    for (DctBackend backend : backends) {
      ASSERT_TRUE(set_dct_backend(backend));
      VideoEncoder enc{kW, kH, cfg};
      VideoDecoder dec{kW, kH};
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const auto got = enc.encode(frames[i]);
        EXPECT_EQ(got->bytes, ref_frames[i]->bytes)
            << dct_backend_name(backend) << " q=" << q << " frame " << i;
        EXPECT_EQ(got->qstep, ref_frames[i]->qstep);
        EXPECT_EQ(got->skip_blocks, ref_frames[i]->skip_blocks);
        EXPECT_EQ(got->coeffs, ref_frames[i]->coeffs)
            << dct_backend_name(backend) << " q=" << q << " frame " << i;
        EXPECT_EQ(got->modes, ref_frames[i]->modes);
        EXPECT_EQ(dec.decode(*got), ref_decoded[i])
            << dct_backend_name(backend) << " q=" << q << " frame " << i;
      }
      EXPECT_EQ(enc.last_reconstructed(), ref_enc.last_reconstructed());
    }
  }
}

}  // namespace
}  // namespace vc::media
