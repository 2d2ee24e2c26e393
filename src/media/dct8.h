// The codec's 8×8 block kernels — DCT-II / IDCT, SAD, residual, quantize,
// dequantize and reconstruct — and the feeds' texture row kernel, with a
// bit-identical determinism contract.
//
// Every pass of both separable transforms reduces to one primitive: eight
// output lanes l, out[l] = Σ_k s[k] · t[k·8 + l], accumulated in k order.
// The AVX backend computes the eight lanes in parallel but each lane still
// performs exactly the scalar reference's operation sequence — acc = acc +
// s·t for k = 0…7, no FMA contraction, no reassociation. The other kernels
// are elementwise: each lane does the scalar loop's operations on its own
// element in the same order (a SAD is an exact integer sum). So every
// result is bit-identical to the retained scalar loops by construction.
// tests/media/test_dct8.cpp enforces this with memcmp; the golden
// transcripts and 1-vs-8-thread report identities therefore never move when
// the backend changes.
//
// Backend selection is a process-wide dispatch set once at startup: AVX when
// the CPU has it, else the scalar reference. Benches and tests may override
// it with set_dct_backend() — single-threaded setup only, before sessions
// spawn. One switch covers every kernel, so kScalar is the all-scalar oracle.
#pragma once

#include <cstdint>

namespace vc::media {

enum class DctBackend {
  kScalar = 0,  // the original loops, retained as the reference
  kAvx,         // x86, runtime-detected: 4 double lanes per vector
};

/// One raster row of value noise: pixel x blends the lattice rows above and
/// below it, already blended across x, as top[x]·(1 − s) + bottom[x]·s.
struct NoiseRow {
  const double* top;
  const double* bottom;
  double s;
};

/// One backend's block kernels. A block is 8×8; pixel blocks are rows
/// `stride` bytes apart, coefficient blocks are 64 row-major values. A null
/// `pred` stands for the flat intra predictor 128.
struct BlockKernels {
  /// F = C·B·Cᵀ and B = Cᵀ·F·C.
  void (*dct)(const double* in, double* out);
  void (*idct)(const double* in, double* out);
  /// Σ |a − 128|.
  std::int32_t (*sad_flat)(const std::uint8_t* a, int stride);
  /// Σ |a − b|, where a result is at most `bail` exactly when the full SAD
  /// is, and is the full SAD then. (The scalar reference stops after the
  /// first row whose running sum exceeds `bail`; SADs only grow with the
  /// pixels covered, so the partial sum already decides `sad ≤ bail`.)
  std::int32_t (*sad)(const std::uint8_t* a, const std::uint8_t* b, int stride,
                      std::int32_t bail);
  /// out = a − pred, as doubles.
  void (*residual)(const std::uint8_t* a, const std::uint8_t* pred, int stride, double* out);
  /// q = int16-saturated round_half_away(clamp(c / step, −32769, 32768));
  /// returns whether any q is nonzero.
  bool (*quantize)(const double* c, const double* step, std::int16_t* q);
  /// out = double(q) · step.
  void (*dequantize)(const std::int16_t* q, const double* step, double* out);
  /// dst = uint8(clamp((pred + rec) + 0.5, 0, 255)), truncated. `pred` and
  /// `dst` share `stride` and may be the same block.
  void (*reconstruct)(const double* rec, const std::uint8_t* pred, std::uint8_t* dst,
                      int stride);
  /// The feeds' fractal texture, one row of `n` pixels:
  /// dst = uint8(clamp(0.7·c + 0.3·f, 0, 255)), truncated, where c and f are
  /// the coarse and fine octaves' blends.
  void (*texture_row)(NoiseRow coarse, NoiseRow fine, std::uint8_t* dst, int n);
};

/// The backend the dispatch currently points at.
DctBackend active_dct_backend();
const char* dct_backend_name(DctBackend backend);
/// Whether this build + CPU can run `backend`.
bool dct_backend_available(DctBackend backend);
/// Points the dispatch at `backend`; returns false (and leaves the dispatch
/// untouched) when unavailable. Not thread-safe against concurrent encodes.
bool set_dct_backend(DctBackend backend);
/// Best available backend for this CPU (what startup selects).
DctBackend best_dct_backend();

/// The active backend's kernels.
const BlockKernels& block_kernels();
/// `backend`'s kernels, whichever is active; null when unavailable. The
/// kScalar table is the equality oracle.
const BlockKernels* block_kernels(DctBackend backend);

}  // namespace vc::media
