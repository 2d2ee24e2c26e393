// Descriptive statistics used across measurement reporting: running moments
// and type-7 quantiles. The lag CDFs of Figs 4–7 are reported as percentiles
// from these quantiles (bench_fig4_7_lag_cdf, `vcb::sample_quantiles`), and
// `vcbench_cli report --cdf` plots such a percentile family.
#pragma once

#include <cstddef>
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
/// no re-sort. Use when the caller keeps a sorted sample around for repeated
/// percentile queries.
double quantile_sorted(const std::vector<double>& sorted_values, double q);

/// Median convenience wrapper.
double median(std::vector<double> values);

}  // namespace vc
