#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vc {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

double quantile_sorted(const std::vector<double>& sorted_values, double q) {
  if (sorted_values.empty()) throw std::invalid_argument{"quantile of empty sample"};
  if (q < 0.0 || q > 1.0) throw std::invalid_argument{"quantile q out of [0,1]"};
  const double pos = q * static_cast<double>(sorted_values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_values.size()) return sorted_values.back();
  return sorted_values[lo] * (1.0 - frac) + sorted_values[lo + 1] * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

}  // namespace vc
