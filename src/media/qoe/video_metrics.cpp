#include "media/qoe/video_metrics.h"

#include <algorithm>
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

// Double-precision image plane used by SSIM/VIFp internals.
struct DImage {
  int w = 0;
  int h = 0;
  std::vector<double> px;

  DImage() = default;
  DImage(int w_, int h_) : w(w_), h(h_), px(static_cast<std::size_t>(w_) * h_, 0.0) {}
  explicit DImage(const Frame& f) : DImage(f.width(), f.height()) {
    for (std::size_t i = 0; i < px.size(); ++i) px[i] = static_cast<double>(f.data()[i]);
  }
  double at(int x, int y) const { return px[static_cast<std::size_t>(y) * w + x]; }
  double& at(int x, int y) { return px[static_cast<std::size_t>(y) * w + x]; }
};

DImage multiply(const DImage& a, const DImage& b) {
  DImage out{a.w, a.h};
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

// Separable "valid"-region convolution: output shrinks by n-1 per axis,
// matching MATLAB filter2(..., 'valid') used in the reference VIFp code.
DImage filter_valid(const DImage& in, const std::vector<double>& k) {
  const int n = static_cast<int>(k.size());
  const int ow = in.w - n + 1;
  const int oh = in.h - n + 1;
  if (ow <= 0 || oh <= 0) return DImage{};
  DImage tmp{ow, in.h};
  for (int y = 0; y < in.h; ++y) {
    for (int x = 0; x < ow; ++x) {
      double acc = 0.0;
      for (int i = 0; i < n; ++i) acc += k[static_cast<std::size_t>(i)] * in.at(x + i, y);
      tmp.at(x, y) = acc;
    }
  }
  DImage out{ow, oh};
  for (int y = 0; y < oh; ++y) {
    for (int x = 0; x < ow; ++x) {
      double acc = 0.0;
      for (int i = 0; i < n; ++i) acc += k[static_cast<std::size_t>(i)] * tmp.at(x, y + i);
      out.at(x, y) = acc;
    }
  }
  return out;
}

DImage downsample2(const DImage& in) {
  DImage out{(in.w + 1) / 2, (in.h + 1) / 2};
  for (int y = 0; y < out.h; ++y) {
    for (int x = 0; x < out.w; ++x) out.at(x, y) = in.at(x * 2, y * 2);
  }
  return out;
}

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

double vifp(const Frame& reference, const Frame& distorted) {
  require_same_size(reference, distorted);
  constexpr double kSigmaNsq = 2.0;  // HVS internal neural noise variance

  DImage ref{reference};
  DImage dist{distorted};
  double num = 0.0;
  double den = 0.0;

  for (int scale = 1; scale <= 4; ++scale) {
    const int n = (1 << (4 - scale + 1)) + 1;  // 17, 9, 5, 3
    const auto kernel = gaussian_kernel(n, static_cast<double>(n) / 5.0);
    if (scale > 1) {
      ref = downsample2(filter_valid(ref, kernel));
      dist = downsample2(filter_valid(dist, kernel));
      if (ref.w < n || ref.h < n) break;
    }
    const DImage mu1 = filter_valid(ref, kernel);
    const DImage mu2 = filter_valid(dist, kernel);
    const DImage rr = filter_valid(multiply(ref, ref), kernel);
    const DImage dd = filter_valid(multiply(dist, dist), kernel);
    const DImage rd = filter_valid(multiply(ref, dist), kernel);

    for (std::size_t i = 0; i < mu1.px.size(); ++i) {
      const double m1 = mu1.px[i];
      const double m2 = mu2.px[i];
      double sigma1_sq = rr.px[i] - m1 * m1;
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
      den += std::log10(1.0 + sigma1_sq / kSigmaNsq);
    }
  }
  if (den <= 1e-12) return 1.0;  // blank reference: no information to lose
  return std::clamp(num / den, 0.0, 1.0);
}

VideoQoe video_qoe(const Frame& reference, const Frame& distorted) {
  return VideoQoe{psnr(reference, distorted), ssim(reference, distorted),
                  vifp(reference, distorted)};
}

VideoQoe mean_video_qoe(const std::vector<Frame>& reference, const std::vector<Frame>& recording,
                        std::int64_t shift, std::int64_t stride) {
  if (shift < 0 || static_cast<std::uint64_t>(shift) >= recording.size()) {
    throw std::invalid_argument{"shift outside the recording"};
  }
  if (stride < 1) throw std::invalid_argument{"stride must be >= 1"};
  const auto offset = static_cast<std::size_t>(shift);
  const std::size_t common = std::min(reference.size(), recording.size() - offset);
  if (common == 0) throw std::invalid_argument{"sequences do not overlap"};
  VideoQoe acc;
  std::size_t n = 0;
  for (std::size_t k = 0; k < common; k += static_cast<std::size_t>(stride), ++n) {
    const VideoQoe q = video_qoe(reference[k], recording[k + offset]);
    acc.psnr += q.psnr;
    acc.ssim += q.ssim;
    acc.vifp += q.vifp;
  }
  const auto count = static_cast<double>(n);
  return VideoQoe{acc.psnr / count, acc.ssim / count, acc.vifp / count};
}

}  // namespace vc::media::qoe
