// Reference oracle for num::LuFactorization: the dense partial-pivot LU
// whose triangular solves visit every entry of the factors, exact zeros
// included.  Same pivot choice and elimination arithmetic as the library;
// tests compare the library's pattern-walking solves against it bit for bit.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "numeric/matrix.hpp"
#include "numeric/vec.hpp"

namespace rmp::num::oracle {

struct DenseLu {
  Matrix lu;
  std::vector<std::size_t> perm;

  /// Factors `a`; false when a pivot falls to `pivot_tol` or below.
  bool factor(const Matrix& a, double pivot_tol = 1e-12) {
    assert(a.rows() == a.cols());
    const std::size_t n = a.rows();
    lu = a;
    perm.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t piv = k;
      double best = std::fabs(lu(k, k));
      for (std::size_t r = k + 1; r < n; ++r) {
        const double v = std::fabs(lu(r, k));
        if (v > best) {
          best = v;
          piv = r;
        }
      }
      if (best <= pivot_tol) return false;
      if (piv != k) {
        for (std::size_t c = 0; c < n; ++c) std::swap(lu(k, c), lu(piv, c));
        std::swap(perm[k], perm[piv]);
      }
      const double inv_piv = 1.0 / lu(k, k);
      for (std::size_t r = k + 1; r < n; ++r) {
        const double m = lu(r, k) * inv_piv;
        lu(r, k) = m;
        if (m == 0.0) continue;
        for (std::size_t c = k + 1; c < n; ++c) lu(r, c) -= m * lu(k, c);
      }
    }
    return true;
  }

  /// Solves A x = b with dense forward and back substitution.
  [[nodiscard]] Vec solve(std::span<const double> b) const {
    const std::size_t n = lu.rows();
    assert(b.size() == n);
    Vec x(n);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = b[perm[i]];
      for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * x[j];
      x[i] = acc;
    }
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = x[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * x[j];
      x[ii] = acc / lu(ii, ii);
    }
    return x;
  }
};

}  // namespace rmp::num::oracle
