// Descriptive statistics for the statistical tests (sample moments of RNG
// draws, operator outputs and Monte-Carlo yield estimates).  Test-only: no
// library code computes these.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

namespace rmp::num {

inline double mean(std::span<const double> a) {
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (double v : a) acc += v;
  return acc / static_cast<double>(a.size());
}

/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
inline double variance(std::span<const double> a) {
  if (a.size() < 2) return 0.0;
  const double m = mean(a);
  double acc = 0.0;
  for (double v : a) {
    const double d = v - m;
    acc += d * d;
  }
  return acc / static_cast<double>(a.size() - 1);
}

inline double stddev(std::span<const double> a) { return std::sqrt(variance(a)); }

/// Linear-interpolation percentile; input need not be sorted.  p outside
/// [0, 100] clamps to the nearest bound; an empty input throws
/// std::invalid_argument (summarize() reports empty inputs as a zeroed
/// Summary instead of calling this).
inline double percentile(std::span<const double> a, double p) {
  if (a.empty()) {
    throw std::invalid_argument("num::percentile: empty input");
  }
  p = std::clamp(p, 0.0, 100.0);
  std::vector<double> sorted(a.begin(), a.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// percentile(a, 50); throws std::invalid_argument on empty input.
inline double median(std::span<const double> a) { return percentile(a, 50.0); }

/// Pearson correlation of two equal-length samples; 0 when degenerate.
inline double pearson(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

inline Summary summarize(std::span<const double> a) {
  Summary s;
  s.count = a.size();
  if (a.empty()) return s;
  s.mean = mean(a);
  s.stddev = stddev(a);
  s.min = *std::min_element(a.begin(), a.end());
  s.max = *std::max_element(a.begin(), a.end());
  s.p25 = percentile(a, 25.0);
  s.median = percentile(a, 50.0);
  s.p75 = percentile(a, 75.0);
  return s;
}

}  // namespace rmp::num
