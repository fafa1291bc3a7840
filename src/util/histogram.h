// Log-binned histogram for heavy-tailed quantities (payment sizes, fees).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace flash {

/// Histogram with logarithmically spaced bins over [lo, hi).
///
/// Samples below lo land in an underflow bin, samples >= hi in an overflow
/// bin. Designed for payment-size distributions spanning many decades
/// (Fig. 3 covers 1e-9 .. 1e9 USD).
class LogHistogram {
 public:
  /// lo, hi: positive bounds with lo < hi; bins_per_decade >= 1.
  LogHistogram(double lo, double hi, std::size_t bins_per_decade = 4);

  void add(double x) noexcept;
  void add(double x, std::size_t count) noexcept;

  std::size_t total() const noexcept { return total_; }
  std::size_t underflow() const noexcept { return underflow_; }
  std::size_t overflow() const noexcept { return overflow_; }
  std::size_t bin_count() const noexcept { return counts_.size(); }
  std::size_t bin(std::size_t i) const { return counts_.at(i); }

  /// Lower edge of bin i (upper edge of bin i is lower_edge(i + 1)).
  double lower_edge(std::size_t i) const;

  /// CDF evaluated at the bin upper edges; includes underflow mass.
  /// Returns pairs (upper_edge, fraction <= upper_edge).
  std::vector<std::pair<double, double>> cdf() const;

  /// Quantile estimate for q in [0, 1], log-interpolated within the bin
  /// that crosses rank q*total. Mass in the underflow bin resolves to lo
  /// (lower_edge(0)), overflow mass to hi; 0 when the histogram is empty.
  /// Accuracy is bounded by the bin width (1/bins_per_decade of a decade),
  /// which is what p50/p99 latency reporting needs.
  double percentile(double q) const;

  /// Multi-line ASCII rendering (for example programs and debugging).
  std::string render(std::size_t width = 50) const;

 private:
  double log_lo_;
  double log_hi_;
  double bins_per_decade_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace flash
