#include "media/feeds.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "media/dct8.h"

namespace vc::media {
namespace {

constexpr std::uint64_t kHashX = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kHashY = 0xC2B2AE3D27D4EB4FULL;

// The last mixing steps of the 2D hash, down to a value in [0, 255].
std::uint8_t finish_hash(std::uint64_t h) {
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return static_cast<std::uint8_t>(h & 0xFF);
}

// Deterministic 2D hash noise in [0, 255]. The key is seed ^ x·kHashX ^
// y·kHashY, so a caller may XOR the terms in any order.
std::uint8_t hash_noise(std::uint64_t seed, int x, int y) {
  return finish_hash(seed ^ static_cast<std::uint64_t>(x) * kHashX ^
                     static_cast<std::uint64_t>(y) * kHashY);
}

// Smooth value noise over a w×h raster: bilinear interpolation of lattice
// hash noise at a given cell size, sampled at (x + off_x, y + off_y) for
// pixel (x, y). Produces natural-looking low-frequency texture. A lattice
// cell spans many pixels, so each lattice row the raster touches is hashed
// once and blended across x once per column; a pixel then does only the
// y-blend of the lattice rows above and below it. Every blend is the
// pointwise formula's operations in the same order, so every value is
// bit-exact.
class ValueNoise {
 public:
  ValueNoise(std::uint64_t seed, int w, int h, double off_x, double off_y, double cell)
      : width_(w), rows_(axis(h, off_y, cell)) {
    // Lattice indices grow with the coordinate, so the first and last
    // positions bound them; the blend reads one past the last.
    const std::vector<Weight> cols = axis(w, off_x, cell);
    const int x_lo = cols.front().cell;
    const int y_lo = rows_.front().cell;
    const int lattice_cols = cols.back().cell - x_lo + 2;
    const int lattice_rows = rows_.back().cell - y_lo + 2;
    std::vector<std::uint8_t> lattice(static_cast<std::size_t>(lattice_cols));
    blends_.resize(static_cast<std::size_t>(lattice_rows) * w);
    for (int j = 0; j < lattice_rows; ++j) {
      for (int i = 0; i < lattice_cols; ++i) lattice[i] = hash_noise(seed, x_lo + i, y_lo + j);
      double* out = &blends_[static_cast<std::size_t>(j) * w];
      for (int x = 0; x < w; ++x) {
        const std::uint8_t* v = &lattice[static_cast<std::size_t>(cols[x].cell - x_lo)];
        const double sx = cols[x].s;
        out[x] = static_cast<double>(v[0]) * (1 - sx) + static_cast<double>(v[1]) * sx;
      }
    }
    for (Weight& r : rows_) r.cell = (r.cell - y_lo) * w;
  }

  NoiseRow row(int y) const {
    const Weight& r = rows_[y];
    return {&blends_[static_cast<std::size_t>(r.cell)],
            &blends_[static_cast<std::size_t>(r.cell + width_)], r.s};
  }

  double at(int x, int y) const {
    const NoiseRow r = row(y);
    return r.top[x] * (1 - r.s) + r.bottom[x] * r.s;
  }

 private:
  // One column or row: its lattice cell (for a row, after construction, the
  // offset of its upper lattice row in blends_) and its smoothstep weight.
  struct Weight {
    int cell;
    double s;
  };

  static std::vector<Weight> axis(int n, double off, double cell) {
    std::vector<Weight> out(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const double g = (i + off) / cell;
      const int c = static_cast<int>(std::floor(g));
      const double f = g - c;
      out[static_cast<std::size_t>(i)] = {c, f * f * (3 - 2 * f)};  // smoothstep
    }
    return out;
  }

  int width_;
  std::vector<Weight> rows_;
  // blends_[j·w + x]: lattice row j blended across x at column x.
  std::vector<double> blends_;
};

// Two-octave fractal noise, range ~[0, 255].
class FractalNoise {
 public:
  FractalNoise(std::uint64_t seed, int w, int h, double off_x, double off_y, double cell)
      : coarse_(seed, w, h, off_x, off_y, cell),
        fine_(seed ^ 0xABCD, w, h, off_x, off_y, cell / 3.0) {}

  double at(int x, int y) const { return 0.7 * coarse_.at(x, y) + 0.3 * fine_.at(x, y); }

  /// Row y, clamped to [0, 255] and truncated, into `dst` (w pixels).
  void render_row(const BlockKernels& k, int y, std::uint8_t* dst, int w) const {
    k.texture_row(coarse_.row(y), fine_.row(y), dst, w);
  }

 private:
  ValueNoise coarse_;
  ValueNoise fine_;
};

// dx² is worked out once per column and dy² once per row; the test is the
// pointwise dx·dx + dy·dy <= 1 on the same values.
void fill_ellipse(Frame& f, double cx, double cy, double rx, double ry, std::uint8_t luma) {
  const int x_lo = std::max(0, static_cast<int>(cx - rx) - 1);
  const int x_hi = std::min(f.width() - 1, static_cast<int>(cx + rx) + 1);
  const int y_lo = std::max(0, static_cast<int>(cy - ry) - 1);
  const int y_hi = std::min(f.height() - 1, static_cast<int>(cy + ry) + 1);
  if (x_lo > x_hi) return;
  std::vector<double> dx2(static_cast<std::size_t>(x_hi - x_lo + 1));
  for (int x = x_lo; x <= x_hi; ++x) {
    const double dx = (x - cx) / rx;
    dx2[static_cast<std::size_t>(x - x_lo)] = dx * dx;
  }
  for (int y = y_lo; y <= y_hi; ++y) {
    const double dy = (y - cy) / ry;
    const double dy2 = dy * dy;
    std::uint8_t* row = f.data() + static_cast<std::size_t>(y) * f.width();
    for (int x = x_lo; x <= x_hi; ++x) {
      if (dx2[static_cast<std::size_t>(x - x_lo)] + dy2 <= 1.0) row[x] = luma;
    }
  }
}

// Deterministic sensor noise: zero-mean uniform with std-dev sigma, keyed by
// (seed, frame index, pixel).
void apply_sensor_noise(Frame& f, std::uint64_t seed, std::int64_t index, double sigma) {
  if (sigma <= 0.0) return;
  const double half_range = sigma * 1.7320508;  // uniform(-a, a) has sd a/sqrt(3)
  const std::uint64_t frame_seed = seed ^ (kHashX * static_cast<std::uint64_t>(index + 1));
  // The shift a hash value h adds, (h - 127.5) / 127.5 * half_range, worked
  // out once per value rather than once per pixel.
  double shift[256];
  for (int h = 0; h < 256; ++h) shift[h] = (h - 127.5) / 127.5 * half_range;
  // The hash key's column terms once per column, its row term once per row.
  const int w = f.width();
  std::vector<std::uint64_t> col_keys(static_cast<std::size_t>(w));
  for (std::size_t x = 0; x < col_keys.size(); ++x) col_keys[x] = x * kHashX;
  for (int y = 0; y < f.height(); ++y) {
    const std::uint64_t row_key = frame_seed ^ static_cast<std::uint64_t>(y) * kHashY;
    std::uint8_t* row = f.data() + static_cast<std::size_t>(y) * w;
    for (int x = 0; x < w; ++x) {
      const double v = row[x] + shift[finish_hash(row_key ^ col_keys[static_cast<std::size_t>(x)])];
      row[x] = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------- TalkingHead

TalkingHeadFeed::TalkingHeadFeed(FeedParams params) : p_(params), background_(p_.width, p_.height) {
  // Indoor wall: smooth low-frequency texture plus a darker "bookshelf" band.
  const FractalNoise wall{p_.seed, p_.width, p_.height, 0.0, 0.0, 48.0};
  for (int y = 0; y < p_.height; ++y) {
    for (int x = 0; x < p_.width; ++x) {
      double v = 90.0 + 0.25 * wall.at(x, y);
      if (x > p_.width * 3 / 4) v *= 0.7;  // shelf on the right
      background_.set(x, y, static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)));
    }
  }
}

Frame TalkingHeadFeed::frame_at(std::int64_t index) const {
  if (index < 0) throw std::invalid_argument{"negative frame index"};
  Frame f = background_;
  const double t = static_cast<double>(index) / p_.fps;
  const double cx = p_.width / 2.0 + 1.5 * std::sin(2.0 * std::numbers::pi * 0.25 * t);
  const double head_cy = p_.height * 0.38 + 1.0 * std::sin(2.0 * std::numbers::pi * 0.4 * t);
  const double head_r = p_.height * 0.16;

  // Torso.
  fill_ellipse(f, cx, p_.height * 0.85, p_.width * 0.22, p_.height * 0.30, 60);
  // Head.
  fill_ellipse(f, cx, head_cy, head_r * 0.8, head_r, 180);
  // Eyes (blink every ~4 s).
  const bool blink = std::fmod(t, 4.0) < 0.15;
  if (!blink) {
    fill_ellipse(f, cx - head_r * 0.35, head_cy - head_r * 0.2, head_r * 0.1, head_r * 0.07, 30);
    fill_ellipse(f, cx + head_r * 0.35, head_cy - head_r * 0.2, head_r * 0.1, head_r * 0.07, 30);
  }
  // Mouth: opens and closes while "talking" (syllable rate ~3 Hz).
  const double mouth_open = 0.5 + 0.5 * std::sin(2.0 * std::numbers::pi * 3.0 * t);
  fill_ellipse(f, cx, head_cy + head_r * 0.5, head_r * 0.3, head_r * (0.05 + 0.12 * mouth_open), 40);
  // Occasional hand gesture: a raised hand for ~1 s every ~7 s.
  const double phase = std::fmod(t, 7.0);
  if (phase < 1.0) {
    const double lift = std::sin(std::numbers::pi * phase);  // raise then lower
    fill_ellipse(f, cx + p_.width * 0.25, p_.height * (0.8 - 0.25 * lift), p_.width * 0.05,
                 p_.height * 0.06, 170);
  }
  apply_sensor_noise(f, p_.seed, index, p_.sensor_noise_sigma);
  return f;
}

// ------------------------------------------------------------------ TourGuide

TourGuideFeed::TourGuideFeed(FeedParams params) : p_(params) {}

Frame TourGuideFeed::frame_at(std::int64_t index) const {
  if (index < 0) throw std::invalid_argument{"negative frame index"};
  Frame f{p_.width, p_.height};
  const double t = static_cast<double>(index) / p_.fps;
  const auto scene = static_cast<std::uint64_t>(t / scene_change_period_sec_);
  const std::uint64_t scene_seed = p_.seed ^ (scene * 0x9E3779B97F4A7C15ULL + 17);

  // Camera pans briskly; a full scene change re-seeds the texture. The
  // texture has fine detail (small cells): panning shifts it by sub-block
  // amounts every frame, so inter residuals carry real structure — the
  // reason high-motion content is expensive per bit (Finding 3).
  const double pan_x = 85.0 * t;
  const double pan_y = 12.0 * std::sin(2.0 * std::numbers::pi * 0.3 * t);
  const FractalNoise texture{scene_seed, p_.width, p_.height, pan_x, pan_y, 9.0};
  const BlockKernels& kernels = block_kernels();
  for (int y = 0; y < p_.height; ++y) {
    texture.render_row(kernels, y, f.data() + static_cast<std::size_t>(y) * p_.width, p_.width);
  }
  // Moving foreground objects (pedestrians/vehicles) crossing the view.
  Rng obj_rng{scene_seed ^ 0x5151};
  for (int i = 0; i < 8; ++i) {
    const double speed = obj_rng.uniform(30.0, 90.0) * (obj_rng.chance(0.5) ? 1.0 : -1.0);
    const double y0 = obj_rng.uniform(0.2, 0.9) * p_.height;
    const double r = obj_rng.uniform(0.03, 0.08) * p_.height;
    const double scene_t = t - static_cast<double>(scene) * scene_change_period_sec_;
    double x0 = obj_rng.uniform(0.0, 1.0) * p_.width + speed * scene_t;
    x0 = std::fmod(std::fmod(x0, p_.width) + p_.width, p_.width);
    const auto luma = static_cast<std::uint8_t>(obj_rng.uniform_int(20, 235));
    fill_ellipse(f, x0, y0, r * 1.5, r, luma);
  }
  apply_sensor_noise(f, p_.seed, index, p_.sensor_noise_sigma);
  return f;
}

// ---------------------------------------------------------------------- Flash

FlashFeed::FlashFeed(FeedParams params, double period_sec, int flash_frames)
    : p_(params), period_sec_(period_sec), flash_frames_(flash_frames) {
  if (period_sec <= 0 || flash_frames <= 0) throw std::invalid_argument{"bad flash parameters"};
  // Also rejects fps <= 0 (and NaN): frame_at takes the index modulo this.
  const double frames_per_period = period_sec_ * p_.fps + 0.5;
  if (!(frames_per_period >= 1.0)) throw std::invalid_argument{"flash period shorter than one frame"};
  period_frames_ = static_cast<std::int64_t>(frames_per_period);
  // A photo-like image (checker + fine texture): its coded size is several
  // KB, producing the unmistakable burst of big packets on the wire that
  // the lag detector keys on (Fig 2).
  flash_ = Frame{p_.width, p_.height};
  const ValueNoise noise{p_.seed ^ 0xF1A5, p_.width, p_.height, 0.0, 0.0, 5.0};
  for (int y = 0; y < p_.height; ++y) {
    for (int x = 0; x < p_.width; ++x) {
      const bool check = ((x / 12) + (y / 12)) % 2 == 0;
      const double texture = 0.5 * noise.at(x, y);
      const double v = (check ? 200.0 : 60.0) + texture - 64.0;
      flash_.set(x, y, static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)));
    }
  }
}

bool FlashFeed::is_flash_frame(std::int64_t index) const {
  return index % period_frames_ < flash_frames_;
}

Frame FlashFeed::frame_at(std::int64_t index) const {
  if (index < 0) throw std::invalid_argument{"negative frame index"};
  if (!is_flash_frame(index)) return Frame{p_.width, p_.height, 16};
  return flash_;
}

// ---------------------------------------------------------------------- Blank

BlankFeed::BlankFeed(FeedParams params) : p_(params) {}

Frame BlankFeed::frame_at(std::int64_t index) const {
  if (index < 0) throw std::invalid_argument{"negative frame index"};
  return Frame{p_.width, p_.height, 16};
}

// --------------------------------------------------------------------- Padded

PaddedFeed::PaddedFeed(std::shared_ptr<const VideoFeed> inner, int pad, std::uint8_t pad_luma)
    : inner_(std::move(inner)), pad_(pad), pad_luma_(pad_luma) {
  if (!inner_) throw std::invalid_argument{"null inner feed"};
  if (pad_ < 0) throw std::invalid_argument{"negative padding"};
}

Frame PaddedFeed::frame_at(std::int64_t index) const {
  const Frame inner = inner_->frame_at(index);
  Frame out{width(), height(), pad_luma_};
  for (int y = 0; y < inner.height(); ++y) {
    std::copy_n(inner.data() + static_cast<std::size_t>(y) * inner.width(), inner.width(),
                out.data() + static_cast<std::size_t>(y + pad_) * out.width() + pad_);
  }
  return out;
}

// --------------------------------------------------------------------- motion

double mean_motion(const VideoFeed& feed, std::int64_t frames) {
  if (frames < 2) throw std::invalid_argument{"need at least two frames"};
  double acc = 0.0;
  Frame prev = feed.frame_at(0);
  for (std::int64_t i = 1; i < frames; ++i) {
    Frame cur = feed.frame_at(i);
    double diff = 0.0;
    for (std::size_t k = 0; k < cur.size(); ++k) {
      diff += std::abs(static_cast<int>(cur.data()[k]) - static_cast<int>(prev.data()[k]));
    }
    acc += diff / static_cast<double>(cur.size());
    prev = std::move(cur);
  }
  return acc / static_cast<double>(frames - 1);
}

}  // namespace vc::media
