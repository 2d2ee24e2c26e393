#include "media/audio_codec.h"

#include <algorithm>
#include <map>
#include <cmath>
#include <numbers>
#include <numeric>
#include <stdexcept>

namespace vc::media {
namespace {

// Normalized DCT-II basis, cached per frame length as one contiguous n×n
// matrix (row k at basis + k·n): basis[k·n + i] = norm(k) * cos(pi (i+0.5)
// k / n). O(N^2) transforms with no trig in the inner loop (the naive
// per-sample std::cos dominated whole benchmark runs), and one allocation
// per (thread, n) instead of n+1 with the old vector-of-vectors.
const double* dct_basis(std::size_t n) {
  // Per-thread cache: sessions running concurrently on an ExperimentRunner
  // pool each rebuild the handful of bases they use instead of contending on
  // a mutex — this was the last lock on the codec path. A codec instance
  // uses one frame length for its whole life, so the steady-state lookup is
  // a single integer compare against the last-used entry; the map only runs
  // when the thread switches frame lengths. Returned pointers stay valid:
  // map nodes are stable and entries are never erased.
  struct BasisCache {
    std::size_t last_n = 0;
    const double* last = nullptr;
    std::map<std::size_t, std::vector<double>> store;
  };
  thread_local BasisCache cache;
  if (cache.last_n == n && cache.last != nullptr) return cache.last;
  auto it = cache.store.find(n);
  if (it == cache.store.end()) {
    std::vector<double> basis(n * n);
    const double norm0 = std::sqrt(1.0 / static_cast<double>(n));
    const double norm = std::sqrt(2.0 / static_cast<double>(n));
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        basis[k * n + i] = (k == 0 ? norm0 : norm) *
                           std::cos(std::numbers::pi * (static_cast<double>(i) + 0.5) *
                                    static_cast<double>(k) / static_cast<double>(n));
      }
    }
    it = cache.store.emplace(n, std::move(basis)).first;
  }
  cache.last_n = n;
  cache.last = it->second.data();
  return cache.last;
}

std::vector<double> dct(std::span<const float> x) {
  const auto n = x.size();
  const double* basis = dct_basis(n);
  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    double acc = 0.0;
    const double* row = basis + k * n;
    for (std::size_t i = 0; i < n; ++i) acc += static_cast<double>(x[i]) * row[i];
    out[k] = acc;
  }
  return out;
}

std::vector<float> idct(const std::vector<double>& c) {
  const auto n = c.size();
  const double* basis = dct_basis(n);
  std::vector<double> acc(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    if (c[k] == 0.0) continue;  // sparse: only kept coefficients contribute
    const double* row = basis + k * n;
    const double ck = c[k];
    for (std::size_t i = 0; i < n; ++i) acc[i] += ck * row[i];
  }
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<float>(acc[i]);
  return out;
}

/// Audio frame length: the 20 ms frames real VCA audio codecs send.
constexpr int kFrameMs = 20;

// Per-coefficient storage cost: position + sign/magnitude.
constexpr std::int64_t kBitsPerCoeff = 16;
constexpr std::int64_t kFrameHeaderBits = 32;

}  // namespace

AudioEncoder::AudioEncoder(Config cfg) : cfg_(cfg) {
  if (cfg_.sample_rate <= 0) throw std::invalid_argument{"bad audio config"};
  frame_samples_ = cfg_.sample_rate * kFrameMs / 1000;
}

std::shared_ptr<const EncodedAudioFrame> AudioEncoder::encode(std::span<const float> samples) {
  if (static_cast<int>(samples.size()) != frame_samples_) {
    throw std::invalid_argument{"audio frame size mismatch"};
  }
  const auto coeffs = dct(samples);

  // Budget: bits for this 20 ms frame.
  const double frame_bits =
      static_cast<double>(cfg_.bitrate.bits_per_second()) * kFrameMs / 1000.0;
  auto keep = static_cast<std::size_t>(std::max(1.0, (frame_bits - kFrameHeaderBits) / kBitsPerCoeff));
  keep = std::min(keep, coeffs.size());

  // Rank coefficients by magnitude.
  std::vector<std::size_t> order(coeffs.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep), order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return std::abs(coeffs[a]) > std::abs(coeffs[b]);
                    });

  auto out = std::make_shared<EncodedAudioFrame>();
  out->sample_rate = cfg_.sample_rate;
  out->frame_samples = frame_samples_;
  out->sequence = next_seq_++;

  double max_mag = 0.0;
  for (std::size_t i = 0; i < keep; ++i) max_mag = std::max(max_mag, std::abs(coeffs[order[i]]));
  out->qstep = std::max(max_mag / 8192.0, 1e-4);
  out->indices.reserve(keep);
  out->values.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    const std::size_t idx = order[i];
    const auto q = static_cast<std::int16_t>(
        std::clamp(std::lround(coeffs[idx] / out->qstep), -32768L, 32767L));
    if (q == 0) continue;
    out->indices.push_back(static_cast<std::uint16_t>(idx));
    out->values.push_back(q);
  }
  out->bytes = (kFrameHeaderBits + kBitsPerCoeff * static_cast<std::int64_t>(out->values.size())) / 8;
  return out;
}

std::vector<float> AudioDecoder::decode(const EncodedAudioFrame& frame) const {
  if (frame.frame_samples != frame_samples_) throw std::invalid_argument{"audio frame size mismatch"};
  std::vector<double> coeffs(static_cast<std::size_t>(frame.frame_samples), 0.0);
  for (std::size_t i = 0; i < frame.indices.size(); ++i) {
    coeffs[frame.indices[i]] = static_cast<double>(frame.values[i]) * frame.qstep;
  }
  return idct(coeffs);
}

}  // namespace vc::media
