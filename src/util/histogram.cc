#include "util/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace flash {

LogHistogram::LogHistogram(double lo, double hi, std::size_t bins_per_decade)
    : log_lo_(std::log10(lo)),
      log_hi_(std::log10(hi)),
      bins_per_decade_(static_cast<double>(bins_per_decade)) {
  assert(lo > 0 && hi > lo && bins_per_decade >= 1);
  const auto nbins = static_cast<std::size_t>(
      std::ceil((log_hi_ - log_lo_) * bins_per_decade_));
  counts_.assign(std::max<std::size_t>(1, nbins), 0);
}

void LogHistogram::add(double x) noexcept { add(x, 1); }

void LogHistogram::add(double x, std::size_t count) noexcept {
  total_ += count;
  if (!(x > 0) || std::log10(x) < log_lo_) {
    underflow_ += count;
    return;
  }
  const double pos = (std::log10(x) - log_lo_) * bins_per_decade_;
  const auto idx = static_cast<std::size_t>(pos);
  if (idx >= counts_.size()) {
    overflow_ += count;
    return;
  }
  counts_[idx] += count;
}

double LogHistogram::lower_edge(std::size_t i) const {
  assert(i <= counts_.size());
  return std::pow(10.0, log_lo_ + static_cast<double>(i) / bins_per_decade_);
}

std::vector<std::pair<double, double>> LogHistogram::cdf() const {
  std::vector<std::pair<double, double>> out;
  out.reserve(counts_.size());
  if (total_ == 0) return out;
  std::size_t acc = underflow_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    acc += counts_[i];
    out.emplace_back(lower_edge(i + 1),
                     static_cast<double>(acc) / static_cast<double>(total_));
  }
  return out;
}

double LogHistogram::percentile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [0, total]; find the first bin whose cumulative count reaches
  // it. Comparing against a real-valued rank keeps q=0 -> first occupied
  // bin's lower edge and q=1 -> last occupied bin's upper edge.
  const double rank = q * static_cast<double>(total_);
  double acc = static_cast<double>(underflow_);
  if (rank <= acc && underflow_ > 0) return lower_edge(0);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = acc + static_cast<double>(counts_[i]);
    if (rank <= next) {
      // Log-space interpolation: fraction of this bin's mass below rank.
      const double frac = (rank - acc) / static_cast<double>(counts_[i]);
      const double lo = log_lo_ + static_cast<double>(i) / bins_per_decade_;
      return std::pow(10.0, lo + frac / bins_per_decade_);
    }
    acc = next;
  }
  return std::pow(10.0, log_hi_);  // remaining mass is overflow
}

std::string LogHistogram::render(std::size_t width) const {
  std::string out;
  const std::size_t peak =
      counts_.empty() ? 0 : *std::max_element(counts_.begin(), counts_.end());
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const std::size_t bar =
        peak ? counts_[i] * width / peak : 0;
    std::snprintf(line, sizeof(line), "%12.3e |%-*s %zu\n", lower_edge(i),
                  static_cast<int>(width),
                  std::string(bar, '#').c_str(), counts_[i]);
    out += line;
  }
  return out;
}

}  // namespace flash
