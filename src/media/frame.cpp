#include "media/frame.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vc::media {

namespace {

// Validates before the pixel buffer is sized: a negative dimension cast to
// size_t would otherwise request terabytes before any check ran.
std::size_t checked_area(int width, int height) {
  if (width <= 0 || height <= 0) throw std::invalid_argument{"frame dimensions must be positive"};
  return static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
}

}  // namespace

Frame::Frame(int width, int height, std::uint8_t fill)
    : width_(width), height_(height), data_(checked_area(width, height), fill) {}

std::uint8_t Frame::at_clamped(int x, int y) const {
  x = std::clamp(x, 0, width_ - 1);
  y = std::clamp(y, 0, height_ - 1);
  return at(x, y);
}

Frame Frame::crop(int x, int y, int w, int h) const {
  if (x < 0 || y < 0 || w <= 0 || h <= 0 || x + w > width_ || y + h > height_) {
    throw std::out_of_range{"crop rectangle outside frame"};
  }
  Frame out{w, h};
  for (int row = 0; row < h; ++row) {
    const std::uint8_t* src = data_.data() + static_cast<std::size_t>(y + row) * width_ + x;
    std::copy(src, src + w, out.data_.data() + static_cast<std::size_t>(row) * w);
  }
  return out;
}

Frame Frame::resized(int new_w, int new_h) const {
  if (new_w <= 0 || new_h <= 0) throw std::invalid_argument{"resize dimensions must be positive"};
  if (new_w == width_ && new_h == height_) return *this;
  Frame out{new_w, new_h};
  const double sx = static_cast<double>(width_) / new_w;
  const double sy = static_cast<double>(height_) / new_h;
  for (int y = 0; y < new_h; ++y) {
    const double fy = (y + 0.5) * sy - 0.5;
    const int y0 = static_cast<int>(std::floor(fy));
    const double wy = fy - y0;
    for (int x = 0; x < new_w; ++x) {
      const double fx = (x + 0.5) * sx - 0.5;
      const int x0 = static_cast<int>(std::floor(fx));
      const double wx = fx - x0;
      const double v = (1 - wy) * ((1 - wx) * at_clamped(x0, y0) + wx * at_clamped(x0 + 1, y0)) +
                       wy * ((1 - wx) * at_clamped(x0, y0 + 1) + wx * at_clamped(x0 + 1, y0 + 1));
      out.set(x, y, static_cast<std::uint8_t>(std::clamp(v + 0.5, 0.0, 255.0)));
    }
  }
  return out;
}

double Frame::mse(const Frame& other) const {
  if (width_ != other.width_ || height_ != other.height_) {
    throw std::invalid_argument{"MSE requires identical dimensions"};
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double d = static_cast<double>(data_[i]) - static_cast<double>(other.data_[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(data_.size());
}

}  // namespace vc::media
