#include "media/qoe/video_metrics.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace vc::media::qoe {
namespace {

void require_same_size(const Frame& a, const Frame& b) {
  if (a.width() != b.width() || a.height() != b.height() || a.empty()) {
    throw std::invalid_argument{"metric inputs must be equal-size, non-empty frames"};
  }
}

using Plane = VifpReference::Plane;

Plane make_plane(int w, int h) {
  return Plane{w, h, std::vector<double>(static_cast<std::size_t>(w) * h, 0.0)};
}

Plane to_plane(const Frame& f) {
  Plane out = make_plane(f.width(), f.height());
  for (std::size_t i = 0; i < out.px.size(); ++i) out.px[i] = static_cast<double>(f.data()[i]);
  return out;
}

const double* row(const Plane& p, int y) { return p.px.data() + static_cast<std::size_t>(y) * p.w; }
double* row(Plane& p, int y) { return p.px.data() + static_cast<std::size_t>(y) * p.w; }

Plane multiply(const Plane& a, const Plane& b) {
  Plane out = make_plane(a.w, a.h);
  for (std::size_t i = 0; i < out.px.size(); ++i) out.px[i] = a.px[i] * b.px[i];
  return out;
}

std::vector<double> gaussian_kernel(int n, double sd) {
  std::vector<double> k(static_cast<std::size_t>(n));
  const int c = n / 2;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = i - c;
    k[static_cast<std::size_t>(i)] = std::exp(-d * d / (2.0 * sd * sd));
    sum += k[static_cast<std::size_t>(i)];
  }
  for (auto& v : k) v /= sum;
  return k;
}

// VIFp's pyramid: scale s (0-based) filters with an n = 2^(4-s) + 1 tap
// Gaussian of deviation n/5: 17, 9, 5 and 3 taps. A constant table, built
// on first use.
constexpr int kVifpScales = 4;
const std::vector<double>& vifp_kernel(std::size_t scale) {
  static const std::array<std::vector<double>, kVifpScales> kernels = [] {
    std::array<std::vector<double>, kVifpScales> k;
    for (std::size_t s = 0; s < k.size(); ++s) {
      const int n = (1 << (kVifpScales - static_cast<int>(s))) + 1;
      k[s] = gaussian_kernel(n, static_cast<double>(n) / 5.0);
    }
    return k;
  }();
  return kernels[scale];
}

// One pass of a separable filter: out[x] = 0.0 + k[0]·src[x] + k[1]·src[step
// + x] + … for x < count, along a row (step 1) or down the columns of a
// plane (step = its width). Every output sums its taps in tap order, as a
// per-pixel dot product does, so no bit depends on how outputs are grouped;
// eight neighbouring outputs accumulate side by side in registers, over
// contiguous doubles, and the rest one at a time.
void filter_pass(const double* src, std::size_t step, const std::vector<double>& k,
                 double* out, int count) {
  int x = 0;
  for (; x + 8 <= count; x += 8) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0, a4 = 0.0, a5 = 0.0, a6 = 0.0, a7 = 0.0;
    for (std::size_t i = 0; i < k.size(); ++i) {
      const double tap = k[i];
      const double* s = src + i * step + x;
      a0 += tap * s[0];
      a1 += tap * s[1];
      a2 += tap * s[2];
      a3 += tap * s[3];
      a4 += tap * s[4];
      a5 += tap * s[5];
      a6 += tap * s[6];
      a7 += tap * s[7];
    }
    out[x] = a0;
    out[x + 1] = a1;
    out[x + 2] = a2;
    out[x + 3] = a3;
    out[x + 4] = a4;
    out[x + 5] = a5;
    out[x + 6] = a6;
    out[x + 7] = a7;
  }
  for (; x < count; ++x) {
    double acc = 0.0;
    for (std::size_t i = 0; i < k.size(); ++i) acc += k[i] * src[i * step + x];
    out[x] = acc;
  }
}

// Separable "valid"-region convolution: output shrinks by n-1 per axis,
// matching MATLAB filter2(..., 'valid') used in the reference VIFp code.
Plane filter_valid(const Plane& in, const std::vector<double>& k) {
  const int n = static_cast<int>(k.size());
  const int ow = in.w - n + 1;
  const int oh = in.h - n + 1;
  if (ow <= 0 || oh <= 0) return Plane{};
  Plane tmp = make_plane(ow, in.h);
  for (int y = 0; y < in.h; ++y) filter_pass(row(in, y), 1, k, row(tmp, y), ow);
  Plane out = make_plane(ow, oh);
  for (int y = 0; y < oh; ++y) {
    filter_pass(row(tmp, y), static_cast<std::size_t>(ow), k, row(out, y), ow);
  }
  return out;
}

Plane downsample2(const Plane& in) {
  Plane out = make_plane((in.w + 1) / 2, (in.h + 1) / 2);
  for (int y = 0; y < out.h; ++y) {
    for (int x = 0; x < out.w; ++x) row(out, y)[x] = row(in, y * 2)[x * 2];
  }
  return out;
}

constexpr double kSigmaNsq = 2.0;  // VIFp's HVS internal neural noise variance

// SSIM windows: 8×8 at stride 2 (dense enough, 4x cheaper than stride 1).
constexpr int kWin = 8;
constexpr int kWinStride = 2;

// Σ value(i) over every SSIM window of a w×h plane, where i indexes its
// pixels, in window order (row by row). Sums along each row come first, one
// per window column; then each window row adds the two rows entering below
// the one above it and drops the two leaving at its top. The values are
// integers, so every sum is exact whatever order it is taken in.
template <typename Value>
std::vector<std::int32_t> window_sums(int w, int h, Value value) {
  if (w < kWin || h < kWin) throw std::invalid_argument{"frame smaller than SSIM window"};
  const auto cols = static_cast<std::size_t>((w - kWin) / kWinStride + 1);
  const auto rows = static_cast<std::size_t>((h - kWin) / kWinStride + 1);
  std::vector<std::int32_t> across(static_cast<std::size_t>(h) * cols);
  for (std::size_t y = 0; y < static_cast<std::size_t>(h); ++y) {
    const std::size_t row = y * static_cast<std::size_t>(w);
    std::int32_t* out = &across[y * cols];
    std::int32_t s = 0;
    for (std::size_t x = 0; x < kWin; ++x) s += value(row + x);
    out[0] = s;
    for (std::size_t c = 1; c < cols; ++c) {
      const std::size_t x0 = row + kWinStride * (c - 1);
      s += value(x0 + kWin) + value(x0 + kWin + 1) - value(x0) - value(x0 + 1);
      out[c] = s;
    }
  }
  std::vector<std::int32_t> sums(rows * cols);
  for (std::size_t k = 0; k < kWin; ++k) {
    for (std::size_t c = 0; c < cols; ++c) sums[c] += across[k * cols + c];
  }
  for (std::size_t r = 1; r < rows; ++r) {
    const std::int32_t* above = &sums[(r - 1) * cols];
    const std::int32_t* leave = &across[kWinStride * (r - 1) * cols];
    const std::int32_t* enter = &across[(kWinStride * r + kWin - kWinStride) * cols];
    std::int32_t* out = &sums[r * cols];
    for (std::size_t c = 0; c < cols; ++c) {
      out[c] = above[c] + enter[c] + enter[cols + c] - leave[c] - leave[cols + c];
    }
  }
  return sums;
}

}  // namespace

double psnr(const Frame& reference, const Frame& distorted, double cap) {
  require_same_size(reference, distorted);
  const double mse = reference.mse(distorted);
  if (mse <= 1e-12) return cap;
  return std::min(cap, 10.0 * std::log10(255.0 * 255.0 / mse));
}

SsimWindows::SsimWindows(const Frame& frame)
    : width_(frame.width()),
      height_(frame.height()),
      sum_(window_sums(width_, height_,
                       [px = frame.data()](std::size_t i) { return std::int32_t{px[i]}; })),
      sum_sq_(window_sums(width_, height_, [px = frame.data()](std::size_t i) {
        const std::int32_t v = px[i];
        return v * v;
      })) {}

double ssim(const Frame& reference, const Frame& distorted) {
  return ssim(reference, SsimWindows{reference}, distorted, SsimWindows{distorted});
}

double ssim(const Frame& reference, const SsimWindows& reference_windows,
            const Frame& distorted, const SsimWindows& distorted_windows) {
  require_same_size(reference, distorted);
  for (const SsimWindows* t : {&reference_windows, &distorted_windows}) {
    if (t->width_ != reference.width() || t->height_ != reference.height()) {
      throw std::invalid_argument{"SSIM window tables must match the frames' size"};
    }
  }
  constexpr double kC1 = (0.01 * 255) * (0.01 * 255);
  constexpr double kC2 = (0.03 * 255) * (0.03 * 255);
  const std::vector<std::int32_t> sums_ab = window_sums(
      reference.width(), reference.height(),
      [a = reference.data(), b = distorted.data()](std::size_t i) {
        return std::int32_t{a[i]} * std::int32_t{b[i]};
      });

  double total = 0.0;
  for (std::size_t i = 0; i < sums_ab.size(); ++i) {  // windows row by row
    const double sum_a = reference_windows.sum_[i];
    const double sum_b = distorted_windows.sum_[i];
    const double sum_aa = reference_windows.sum_sq_[i];
    const double sum_bb = distorted_windows.sum_sq_[i];
    const double sum_ab = sums_ab[i];
    constexpr double kN = kWin * kWin;
    const double mu_a = sum_a / kN;
    const double mu_b = sum_b / kN;
    const double var_a = sum_aa / kN - mu_a * mu_a;
    const double var_b = sum_bb / kN - mu_b * mu_b;
    const double cov = sum_ab / kN - mu_a * mu_b;
    const double s = ((2 * mu_a * mu_b + kC1) * (2 * cov + kC2)) /
                     ((mu_a * mu_a + mu_b * mu_b + kC1) * (var_a + var_b + kC2));
    total += s;
  }
  return total / static_cast<double>(sums_ab.size());
}

VifpReference::VifpReference(const Frame& reference)
    : width_(reference.width()), height_(reference.height()) {
  if (reference.empty()) throw std::invalid_argument{"VIFp reference must be a non-empty frame"};
  for (std::size_t scale = 0; scale < kVifpScales; ++scale) {
    const std::vector<double>& kernel = vifp_kernel(scale);
    Plane image = scale == 0 ? to_plane(reference)
                             : downsample2(filter_valid(scales_.back().image, kernel));
    const auto n = static_cast<int>(kernel.size());
    if (scale > 0 && (image.w < n || image.h < n)) break;
    Plane mean = filter_valid(image, kernel);
    Plane square = filter_valid(multiply(image, image), kernel);
    for (std::size_t i = 0; i < mean.px.size(); ++i) {
      const double m1 = mean.px[i];
      double sigma1_sq = std::max(square.px[i] - m1 * m1, 0.0);
      if (sigma1_sq < 1e-10) sigma1_sq = 0.0;
      den_ += std::log10(1.0 + sigma1_sq / kSigmaNsq);
    }
    scales_.push_back(Scale{std::move(image), std::move(mean), std::move(square)});
  }
}

double vifp(const VifpReference& reference, const Frame& distorted) {
  if (distorted.width() != reference.width_ || distorted.height() != reference.height_) {
    throw std::invalid_argument{"metric inputs must be equal-size, non-empty frames"};
  }
  Plane dist = to_plane(distorted);
  double num = 0.0;
  for (std::size_t scale = 0; scale < reference.scales_.size(); ++scale) {
    const std::vector<double>& kernel = vifp_kernel(scale);
    const VifpReference::Scale& ref = reference.scales_[scale];
    if (scale > 0) dist = downsample2(filter_valid(dist, kernel));
    const Plane mu2 = filter_valid(dist, kernel);
    const Plane dd = filter_valid(multiply(dist, dist), kernel);
    const Plane rd = filter_valid(multiply(ref.image, dist), kernel);

    for (std::size_t i = 0; i < mu2.px.size(); ++i) {
      const double m1 = ref.mean.px[i];
      const double m2 = mu2.px[i];
      double sigma1_sq = ref.square.px[i] - m1 * m1;
      double sigma2_sq = dd.px[i] - m2 * m2;
      double sigma12 = rd.px[i] - m1 * m2;
      sigma1_sq = std::max(sigma1_sq, 0.0);
      sigma2_sq = std::max(sigma2_sq, 0.0);

      double g = sigma12 / (sigma1_sq + 1e-10);
      double sv_sq = sigma2_sq - g * sigma12;
      // Reference implementation's edge-case handling:
      if (sigma1_sq < 1e-10) {
        g = 0.0;
        sv_sq = sigma2_sq;
        sigma1_sq = 0.0;
      }
      if (sigma2_sq < 1e-10) {
        g = 0.0;
        sv_sq = 0.0;
      }
      if (g < 0.0) {
        sv_sq = sigma2_sq;
        g = 0.0;
      }
      sv_sq = std::max(sv_sq, 1e-10);
      num += std::log10(1.0 + g * g * sigma1_sq / (sv_sq + kSigmaNsq));
    }
  }
  if (reference.den_ <= 1e-12) return 1.0;  // blank reference: no information to lose
  return std::clamp(num / reference.den_, 0.0, 1.0);
}

double vifp(const Frame& reference, const Frame& distorted) {
  require_same_size(reference, distorted);
  return vifp(VifpReference{reference}, distorted);
}

VideoQoe video_qoe(const Frame& reference, const Frame& distorted) {
  require_same_size(reference, distorted);
  return video_qoe(reference, SsimWindows{reference}, VifpReference{reference}, distorted);
}

VideoQoe video_qoe(const Frame& reference, const SsimWindows& reference_windows,
                   const VifpReference& reference_planes, const Frame& distorted) {
  return VideoQoe{psnr(reference, distorted),
                  ssim(reference, reference_windows, distorted, SsimWindows{distorted}),
                  vifp(reference_planes, distorted)};
}

ReferenceFrames::ReferenceFrames(const VideoFeed& feed, std::size_t size)
    : size_(size), feed_(&feed), rendered_(size), windows_(size) {}

ReferenceFrames::ReferenceFrames(const std::vector<Frame>& frames)
    : size_(frames.size()), frames_(&frames), windows_(frames.size()) {}

const Frame& ReferenceFrames::frame(std::size_t k) {
  if (frames_ != nullptr) return frames_->at(k);
  std::optional<Frame>& slot = rendered_.at(k);
  if (!slot) slot.emplace(feed_->frame_at(static_cast<std::int64_t>(k)));
  return *slot;
}

const SsimWindows& ReferenceFrames::windows(std::size_t k) {
  std::optional<SsimWindows>& slot = windows_.at(k);
  if (!slot) slot.emplace(frame(k));
  return *slot;
}

std::vector<VideoQoe> mean_video_qoe(ReferenceFrames& reference,
                                     const std::vector<ShiftedRecording>& recordings,
                                     std::int64_t stride) {
  if (stride < 1) throw std::invalid_argument{"stride must be >= 1"};
  std::vector<std::size_t> common;
  for (const ShiftedRecording& r : recordings) {
    if (r.shift < 0 || static_cast<std::uint64_t>(r.shift) >= r.frames->size()) {
      throw std::invalid_argument{"shift outside the recording"};
    }
    common.push_back(
        std::min(reference.size(), r.frames->size() - static_cast<std::size_t>(r.shift)));
    if (common.back() == 0) throw std::invalid_argument{"sequences do not overlap"};
  }
  std::vector<VideoQoe> acc(recordings.size());
  std::vector<std::size_t> n(recordings.size(), 0);
  const std::size_t longest = common.empty() ? 0 : *std::max_element(common.begin(), common.end());
  for (std::size_t k = 0; k < longest; k += static_cast<std::size_t>(stride)) {
    const Frame& ref = reference.frame(k);
    const VifpReference planes{ref};  // the only reference planes alive
    for (std::size_t r = 0; r < recordings.size(); ++r) {
      if (k >= common[r]) continue;
      const auto d = k + static_cast<std::size_t>(recordings[r].shift);
      const VideoQoe q = video_qoe(ref, reference.windows(k), planes, (*recordings[r].frames)[d]);
      acc[r].psnr += q.psnr;
      acc[r].ssim += q.ssim;
      acc[r].vifp += q.vifp;
      ++n[r];
    }
  }
  std::vector<VideoQoe> out;
  for (std::size_t r = 0; r < recordings.size(); ++r) {
    const auto count = static_cast<double>(n[r]);
    out.push_back(VideoQoe{acc[r].psnr / count, acc[r].ssim / count, acc[r].vifp / count});
  }
  return out;
}

}  // namespace vc::media::qoe
