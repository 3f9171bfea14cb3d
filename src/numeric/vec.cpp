#include "numeric/vec.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace rmp::num {

void assign(Vec& y, std::span<const double> a) {
  y.assign(a.begin(), a.end());
}

void add_inplace(Vec& y, std::span<const double> a) {
  assert(y.size() == a.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += a[i];
}

void sub_inplace(Vec& y, std::span<const double> a) {
  assert(y.size() == a.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] -= a[i];
}

void scale_inplace(Vec& y, double s) {
  for (double& v : y) v *= s;
}

void axpy(Vec& y, double s, std::span<const double> a) {
  assert(y.size() == a.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += s * a[i];
}

Vec add(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vec sub(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vec scaled(std::span<const double> a, double s) {
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = s * a[i];
  return out;
}

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double norm1(std::span<const double> a) {
  double acc = 0.0;
  for (double v : a) acc += std::fabs(v);
  return acc;
}

double norm_inf(std::span<const double> a) {
  double acc = 0.0;
  for (double v : a) acc = std::max(acc, std::fabs(v));
  return acc;
}

double dist(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(dist2(a, b));
}

double dist2(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double dist_inf(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = std::max(acc, std::fabs(a[i] - b[i]));
  }
  return acc;
}

double dist1(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::fabs(a[i] - b[i]);
  return acc;
}

void clamp_inplace(Vec& y, std::span<const double> lo, std::span<const double> hi) {
  assert(y.size() == lo.size() && y.size() == hi.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = std::clamp(y[i], lo[i], hi[i]);
}

bool all_finite(std::span<const double> a) {
  return std::all_of(a.begin(), a.end(), [](double v) { return std::isfinite(v); });
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double sum(std::span<const double> a) {
  double acc = 0.0;
  for (double v : a) acc += v;
  return acc;
}

double min_element(std::span<const double> a) {
  assert(!a.empty());
  return *std::min_element(a.begin(), a.end());
}

double max_element(std::span<const double> a) {
  assert(!a.empty());
  return *std::max_element(a.begin(), a.end());
}

Vec constant(std::size_t n, double value) { return Vec(n, value); }

Vec linspace(double lo, double hi, std::size_t n) {
  assert(n >= 2);
  Vec out(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) out[i] = lo + step * static_cast<double>(i);
  out.back() = hi;
  return out;
}

}  // namespace rmp::num
