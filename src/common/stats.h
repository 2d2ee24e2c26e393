// Descriptive statistics used across measurement reporting: running moments,
// quantiles, empirical CDFs, histograms and boxplot summaries.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vc {

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile of a sample using linear interpolation (type-7, the numpy/R
/// default). `q` in [0, 1]. The input need not be sorted.
double quantile(std::vector<double> values, double q);

/// Same quantile, but `sorted_values` must already be ascending; no copy and
/// no re-sort. Use when the caller keeps a sorted sample around (CDFs,
/// boxplots, repeated percentile queries).
double quantile_sorted(const std::vector<double>& sorted_values, double q);

/// Median convenience wrapper.
double median(std::vector<double> values);

/// Five-number summary as drawn in the paper's boxplots (Fig 19a):
/// whiskers at 1.5×IQR clipped to the data range.
struct BoxplotSummary {
  double whisker_lo = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double whisker_hi = 0.0;
  std::size_t n = 0;
};
BoxplotSummary boxplot(std::vector<double> values);

/// Empirical CDF over a sample; evaluate at arbitrary points or dump the
/// sorted step function (as in the paper's lag CDFs, Figs 4–7).
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  /// P(X <= x).
  double at(double x) const;
  /// Inverse CDF (quantile), q in [0, 1].
  double inverse(double q) const;
  std::size_t size() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
};

/// Fixed-bin histogram.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  std::size_t total() const { return total_; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace vc
