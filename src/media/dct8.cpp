#include "media/dct8.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numbers>

#include "media/video_codec.h"

#if defined(__x86_64__) || defined(__i386__)
#define VC_DCT8_X86 1
#include <immintrin.h>
#endif

namespace vc::media {
namespace {

constexpr int kN = 8;

// Precomputed DCT-II basis, expression-for-expression the table the codec
// always used — kFwd[u*8+x] = a(u) * cos((2x+1) u pi / 16) — so every
// backend (and the scalar reference) reads identical bits.
struct Tables {
  alignas(32) double fwd[64];
  alignas(32) double fwd_t[64];  // fwd_t[x*8+u] = fwd[u*8+x]
  Tables() {
    for (int u = 0; u < kN; ++u) {
      const double a = u == 0 ? std::sqrt(1.0 / kN) : std::sqrt(2.0 / kN);
      for (int x = 0; x < kN; ++x) {
        fwd[u * kN + x] = a * std::cos((2 * x + 1) * u * std::numbers::pi / (2.0 * kN));
      }
    }
    for (int u = 0; u < kN; ++u) {
      for (int x = 0; x < kN; ++x) fwd_t[x * kN + u] = fwd[u * kN + x];
    }
  }
};
const Tables kT;

const std::uint8_t* row_of(const std::uint8_t* block, int stride, int y) {
  return block + static_cast<std::size_t>(y) * stride;
}

// ---------------------------------------------------------------------------
// The scalar reference: the codec's original per-element loops.
// ---------------------------------------------------------------------------

void dct2d_scalar(const double* in, double* out) {
  double tmp[64];
  for (int y = 0; y < kN; ++y) {
    for (int u = 0; u < kN; ++u) {
      double acc = 0.0;
      for (int x = 0; x < kN; ++x) acc += kT.fwd[u * kN + x] * in[y * kN + x];
      tmp[y * kN + u] = acc;
    }
  }
  for (int u = 0; u < kN; ++u) {
    for (int v = 0; v < kN; ++v) {
      double acc = 0.0;
      for (int y = 0; y < kN; ++y) acc += kT.fwd[v * kN + y] * tmp[y * kN + u];
      out[v * kN + u] = acc;
    }
  }
}

void idct2d_scalar(const double* in, double* out) {
  double tmp[64];
  for (int v = 0; v < kN; ++v) {
    for (int x = 0; x < kN; ++x) {
      double acc = 0.0;
      for (int u = 0; u < kN; ++u) acc += kT.fwd[u * kN + x] * in[v * kN + u];
      tmp[v * kN + x] = acc;
    }
  }
  for (int x = 0; x < kN; ++x) {
    for (int y = 0; y < kN; ++y) {
      double acc = 0.0;
      for (int v = 0; v < kN; ++v) acc += kT.fwd[v * kN + y] * tmp[v * kN + x];
      out[y * kN + x] = acc;
    }
  }
}

std::int32_t sad_flat_scalar(const std::uint8_t* a, int stride) {
  std::int32_t sad = 0;
  for (int y = 0; y < kN; ++y) {
    const std::uint8_t* arow = row_of(a, stride, y);
    for (int x = 0; x < kN; ++x) sad += std::abs(static_cast<int>(arow[x]) - 128);
  }
  return sad;
}

std::int32_t sad_scalar(const std::uint8_t* a, const std::uint8_t* b, int stride,
                        std::int32_t bail) {
  std::int32_t sad = 0;
  for (int y = 0; y < kN && sad <= bail; ++y) {
    const std::uint8_t* arow = row_of(a, stride, y);
    const std::uint8_t* brow = row_of(b, stride, y);
    for (int x = 0; x < kN; ++x) {
      sad += std::abs(static_cast<int>(arow[x]) - static_cast<int>(brow[x]));
    }
  }
  return sad;
}

void residual_scalar(const std::uint8_t* a, const std::uint8_t* pred, int stride, double* out) {
  for (int y = 0; y < kN; ++y) {
    const std::uint8_t* arow = row_of(a, stride, y);
    for (int x = 0; x < kN; ++x) {
      const double p = pred != nullptr ? static_cast<double>(row_of(pred, stride, y)[x]) : 128.0;
      out[y * kN + x] = static_cast<double>(arow[x]) - p;
    }
  }
}

bool quantize_scalar(const double* c, const double* step, std::int16_t* q) {
  bool nonzero = false;
  for (int i = 0; i < kN * kN; ++i) {
    // Clamping first keeps the conversion defined; every value past the
    // clamp rounds outside int16 and saturates all the same.
    const double v = std::clamp(c[i] / step[i], -32769.0, 32768.0);
    q[i] = static_cast<std::int16_t>(
        std::clamp(round_half_away(v), static_cast<long>(INT16_MIN), static_cast<long>(INT16_MAX)));
    nonzero = nonzero || q[i] != 0;
  }
  return nonzero;
}

void dequantize_scalar(const std::int16_t* q, const double* step, double* out) {
  for (int i = 0; i < kN * kN; ++i) out[i] = static_cast<double>(q[i]) * step[i];
}

void reconstruct_scalar(const double* rec, const std::uint8_t* pred, std::uint8_t* dst,
                        int stride) {
  for (int y = 0; y < kN; ++y) {
    std::uint8_t* drow = dst + static_cast<std::size_t>(y) * stride;
    for (int x = 0; x < kN; ++x) {
      const double p = pred != nullptr ? static_cast<double>(row_of(pred, stride, y)[x]) : 128.0;
      drow[x] = static_cast<std::uint8_t>(std::clamp(p + rec[y * kN + x] + 0.5, 0.0, 255.0));
    }
  }
}

// One texture pixel; `cw` and `fw` are 1 − coarse.s and 1 − fine.s.
inline std::uint8_t texture_px(const NoiseRow& coarse, double cw, const NoiseRow& fine, double fw,
                               int x) {
  const double c = coarse.top[x] * cw + coarse.bottom[x] * coarse.s;
  const double f = fine.top[x] * fw + fine.bottom[x] * fine.s;
  return static_cast<std::uint8_t>(std::clamp(0.7 * c + 0.3 * f, 0.0, 255.0));
}

void texture_row_scalar(NoiseRow coarse, NoiseRow fine, std::uint8_t* dst, int n) {
  const double cw = 1 - coarse.s;
  const double fw = 1 - fine.s;
  for (int x = 0; x < n; ++x) dst[x] = texture_px(coarse, cw, fine, fw, x);
}

constexpr BlockKernels kScalarKernels{
    &dct2d_scalar,       &idct2d_scalar,   &sad_flat_scalar,   &sad_scalar,
    &residual_scalar,    &quantize_scalar, &dequantize_scalar, &reconstruct_scalar,
    &texture_row_scalar,
};

#ifdef VC_DCT8_X86

// ---------------------------------------------------------------------------
// AVX. Every kernel below does the scalar loop's operations on each element
// in the same order — explicit mul-then-add, never _mm256_fmadd_pd, because
// the scalar reference rounds after the multiply — so results are the same
// bits. The integer widenings are SSE4.1, which target("avx") includes.
//
// The DCT's one primitive: out[l] = Σ_k s[k] · t[k*8 + l], k accumulated in
// order. Pass mapping (scalar loops on the left, primitive call on the right):
//   DCT  rows:  tmp[y][u] = Σ_x fwd[u][x]·in[y][x]   = mac8(in+y·8, fwd_t)
//   DCT  cols:  out[v][u] = Σ_y fwd[v][y]·tmp[y][u]  = mac8(fwd+v·8, tmp)
//   IDCT rows:  tmp[v][x] = Σ_u fwd[u][x]·in[v][u]   = mac8(in+v·8, fwd)
//   IDCT cols:  out[y][x] = Σ_v fwd[v][y]·tmp[v][x]  = mac8(fwd_t+y·8, tmp)
// In every case the scalar loop's per-output accumulation index becomes k
// and the free index becomes the lane, so per-lane arithmetic is unchanged.
// ---------------------------------------------------------------------------

#define VC_AVX __attribute__((target("avx")))

VC_AVX inline void mac8_avx(const double* s, const double* t, double* out) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  for (int k = 0; k < kN; ++k) {
    const __m256d sk = _mm256_set1_pd(s[k]);
    const double* row = t + k * kN;
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(sk, _mm256_loadu_pd(row + 0)));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(sk, _mm256_loadu_pd(row + 4)));
  }
  _mm256_storeu_pd(out + 0, a0);
  _mm256_storeu_pd(out + 4, a1);
}

VC_AVX void dct2d_avx(const double* in, double* out) {
  alignas(32) double tmp[64];
  for (int y = 0; y < kN; ++y) mac8_avx(in + y * kN, kT.fwd_t, tmp + y * kN);
  for (int v = 0; v < kN; ++v) mac8_avx(kT.fwd + v * kN, tmp, out + v * kN);
}

VC_AVX void idct2d_avx(const double* in, double* out) {
  alignas(32) double tmp[64];
  for (int v = 0; v < kN; ++v) mac8_avx(in + v * kN, kT.fwd, tmp + v * kN);
  for (int y = 0; y < kN; ++y) mac8_avx(kT.fwd_t + y * kN, tmp, out + y * kN);
}

// Rows y and y+1 of a pixel block in one register, for _mm_sad_epu8.
VC_AVX inline __m128i load_row_pair(const std::uint8_t* block, int stride, int y) {
  return _mm_unpacklo_epi64(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row_of(block, stride, y))),
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row_of(block, stride, y + 1))));
}

// Σ |a − b| by _mm_sad_epu8, two rows per register: exact integer sums.
// A null `b` is the flat predictor 128.
VC_AVX inline std::int32_t sad_rows(const std::uint8_t* a, const std::uint8_t* b, int stride) {
  const __m128i flat = _mm_set1_epi8(static_cast<char>(0x80));
  __m128i acc = _mm_setzero_si128();
  for (int y = 0; y < kN; y += 2) {
    const __m128i brows = b != nullptr ? load_row_pair(b, stride, y) : flat;
    acc = _mm_add_epi64(acc, _mm_sad_epu8(load_row_pair(a, stride, y), brows));
  }
  return _mm_cvtsi128_si32(_mm_add_epi64(acc, _mm_unpackhi_epi64(acc, acc)));
}

VC_AVX std::int32_t sad_flat_avx(const std::uint8_t* a, int stride) {
  return sad_rows(a, nullptr, stride);
}

// The full SAD: it is at most `bail` exactly when the scalar partial sum is.
VC_AVX std::int32_t sad_avx(const std::uint8_t* a, const std::uint8_t* b, int stride,
                            std::int32_t /*bail*/) {
  return sad_rows(a, b, stride);
}

// Eight pixels → two vectors of four doubles.
VC_AVX inline void widen_row(const std::uint8_t* row, __m256d* lo, __m256d* hi) {
  const __m128i v = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row));
  *lo = _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(v));
  *hi = _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_srli_si128(v, 4)));
}

VC_AVX void residual_avx(const std::uint8_t* a, const std::uint8_t* pred, int stride,
                         double* out) {
  __m256d plo = _mm256_set1_pd(128.0);
  __m256d phi = plo;
  for (int y = 0; y < kN; ++y) {
    __m256d lo, hi;
    widen_row(row_of(a, stride, y), &lo, &hi);
    if (pred != nullptr) widen_row(row_of(pred, stride, y), &plo, &phi);
    _mm256_storeu_pd(out + y * kN, _mm256_sub_pd(lo, plo));
    _mm256_storeu_pd(out + y * kN + 4, _mm256_sub_pd(hi, phi));
  }
}

// Four coefficients of quantize_scalar, as int32. The clamp is max/min
// (equal to std::clamp off NaN); TO_ZERO rounding is the int conversion in
// round_half_away, and frac = v − t is exact, so the ±0.5 masks add the
// same 0 or 1. Every value is a small integer, so the adds are exact too.
VC_AVX inline __m128i quantize4_avx(const double* c, const double* step) {
  __m256d v = _mm256_div_pd(_mm256_loadu_pd(c), _mm256_loadu_pd(step));
  v = _mm256_min_pd(_mm256_max_pd(v, _mm256_set1_pd(-32769.0)), _mm256_set1_pd(32768.0));
  const __m256d t = _mm256_round_pd(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d frac = _mm256_sub_pd(v, t);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d up = _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_set1_pd(0.5), _CMP_GE_OQ), one);
  const __m256d down = _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_set1_pd(-0.5), _CMP_LE_OQ), one);
  return _mm256_cvttpd_epi32(_mm256_sub_pd(_mm256_add_pd(t, up), down));
}

VC_AVX bool quantize_avx(const double* c, const double* step, std::int16_t* q) {
  __m128i any = _mm_setzero_si128();
  for (int i = 0; i < kN * kN; i += 8) {
    // Signed saturation to int16 is the scalar INT16_MIN/MAX clamp.
    const __m128i packed =
        _mm_packs_epi32(quantize4_avx(c + i, step + i), quantize4_avx(c + i + 4, step + i + 4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i), packed);
    any = _mm_or_si128(any, packed);
  }
  return _mm_testz_si128(any, any) == 0;
}

VC_AVX void dequantize_avx(const std::int16_t* q, const double* step, double* out) {
  for (int i = 0; i < kN * kN; i += 8) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
    const __m256d lo = _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(v));
    const __m256d hi = _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(_mm_srli_si128(v, 8)));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(lo, _mm256_loadu_pd(step + i)));
    _mm256_storeu_pd(out + i + 4, _mm256_mul_pd(hi, _mm256_loadu_pd(step + i + 4)));
  }
}

// (pred + rec) + 0.5, clamped to [0, 255], truncated: the clamped values
// fit every pack below, so the packs only narrow.
VC_AVX inline __m128i reconstruct4_avx(__m256d pred, const double* rec) {
  const __m256d v = _mm256_add_pd(_mm256_add_pd(pred, _mm256_loadu_pd(rec)), _mm256_set1_pd(0.5));
  return _mm256_cvttpd_epi32(
      _mm256_min_pd(_mm256_max_pd(v, _mm256_setzero_pd()), _mm256_set1_pd(255.0)));
}

VC_AVX void reconstruct_avx(const double* rec, const std::uint8_t* pred, std::uint8_t* dst,
                            int stride) {
  __m256d plo = _mm256_set1_pd(128.0);
  __m256d phi = plo;
  for (int y = 0; y < kN; ++y) {
    if (pred != nullptr) widen_row(row_of(pred, stride, y), &plo, &phi);
    const __m128i words = _mm_packs_epi32(reconstruct4_avx(plo, rec + y * kN),
                                          reconstruct4_avx(phi, rec + y * kN + 4));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + static_cast<std::size_t>(y) * stride),
                     _mm_packus_epi16(words, words));
  }
}

// Four texture pixels from x, as int32 lanes already clamped to [0, 255].
VC_AVX inline __m128i texture4_avx(const NoiseRow& coarse, __m256d cw, const NoiseRow& fine,
                                   __m256d fw, int x) {
  const __m256d c = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(coarse.top + x), cw),
                                  _mm256_mul_pd(_mm256_loadu_pd(coarse.bottom + x),
                                                _mm256_set1_pd(coarse.s)));
  const __m256d f = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(fine.top + x), fw),
                                  _mm256_mul_pd(_mm256_loadu_pd(fine.bottom + x),
                                                _mm256_set1_pd(fine.s)));
  const __m256d v = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(0.7), c),
                                  _mm256_mul_pd(_mm256_set1_pd(0.3), f));
  return _mm256_cvttpd_epi32(
      _mm256_min_pd(_mm256_max_pd(v, _mm256_setzero_pd()), _mm256_set1_pd(255.0)));
}

// Eight pixels a step, then four, then the scalar pixel for the last 0-3.
VC_AVX void texture_row_avx(NoiseRow coarse, NoiseRow fine, std::uint8_t* dst, int n) {
  const double cw = 1 - coarse.s;
  const double fw = 1 - fine.s;
  const __m256d cw4 = _mm256_set1_pd(cw);
  const __m256d fw4 = _mm256_set1_pd(fw);
  int x = 0;
  for (; x + 8 <= n; x += 8) {
    const __m128i words = _mm_packs_epi32(texture4_avx(coarse, cw4, fine, fw4, x),
                                          texture4_avx(coarse, cw4, fine, fw4, x + 4));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + x), _mm_packus_epi16(words, words));
  }
  if (x + 4 <= n) {
    const __m128i lanes = texture4_avx(coarse, cw4, fine, fw4, x);
    const __m128i words = _mm_packs_epi32(lanes, lanes);
    const std::int32_t bytes = _mm_cvtsi128_si32(_mm_packus_epi16(words, words));
    std::memcpy(dst + x, &bytes, 4);
    x += 4;
  }
  for (; x < n; ++x) dst[x] = texture_px(coarse, cw, fine, fw, x);
}

constexpr BlockKernels kAvxKernels{
    &dct2d_avx,    &idct2d_avx,   &sad_flat_avx,   &sad_avx,
    &residual_avx, &quantize_avx, &dequantize_avx, &reconstruct_avx,
    &texture_row_avx,
};

bool cpu_has_avx() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx") != 0;
}

#endif  // VC_DCT8_X86

// Constant-initialized to the scalar reference so a caller running during
// another TU's static initialization still gets correct (identical) bits;
// the dynamic initializer below upgrades the dispatch to the best ISA.
const BlockKernels* g_kernels = &kScalarKernels;
DctBackend g_backend = DctBackend::kScalar;

[[maybe_unused]] const bool g_dispatch_init = [] {
  set_dct_backend(best_dct_backend());
  return true;
}();

}  // namespace

DctBackend active_dct_backend() { return g_backend; }

const char* dct_backend_name(DctBackend backend) {
  switch (backend) {
    case DctBackend::kScalar: return "scalar";
    case DctBackend::kAvx: return "avx";
  }
  return "?";
}

bool dct_backend_available(DctBackend backend) { return block_kernels(backend) != nullptr; }

bool set_dct_backend(DctBackend backend) {
  const BlockKernels* kernels = block_kernels(backend);
  if (kernels == nullptr) return false;
  g_kernels = kernels;
  g_backend = backend;
  return true;
}

DctBackend best_dct_backend() {
  return dct_backend_available(DctBackend::kAvx) ? DctBackend::kAvx : DctBackend::kScalar;
}

const BlockKernels& block_kernels() { return *g_kernels; }

const BlockKernels* block_kernels(DctBackend backend) {
  switch (backend) {
    case DctBackend::kScalar: return &kScalarKernels;
    case DctBackend::kAvx:
#ifdef VC_DCT8_X86
      return cpu_has_avx() ? &kAvxKernels : nullptr;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

}  // namespace vc::media
