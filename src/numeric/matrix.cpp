#include "numeric/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rmp::num {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::multiply(std::span<const double> x, Vec& y) const {
  assert(x.size() == cols_);
  y.assign(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = data_.data() + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += a[c] * x[c];
    y[r] = acc;
  }
}

Vec Matrix::multiply(std::span<const double> x) const {
  Vec y;
  multiply(x, y);
  return y;
}

void Matrix::multiply_transposed(std::span<const double> x, Vec& y) const {
  assert(x.size() == rows_);
  y.assign(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = data_.data() + r * cols_;
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += a[c] * xr;
  }
}

Vec Matrix::multiply_transposed(std::span<const double> x) const {
  Vec y;
  multiply_transposed(x, y);
  return y;
}

Matrix Matrix::multiply(const Matrix& b) const {
  assert(cols_ == b.rows());
  Matrix c(rows_, b.cols(), 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.data_.data() + k * b.cols_;
      double* crow = c.data_.data() + i * c.cols_;
      for (std::size_t j = 0; j < b.cols_; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

std::optional<LuFactorization> LuFactorization::compute(const Matrix& a,
                                                        double pivot_tol) {
  LuFactorization f;
  if (!f.factor(a, pivot_tol)) return std::nullopt;
  // A one-shot factorization is often kept (the warm pool's root LUs), so
  // it drops the spare pattern slots a refactor would reuse.
  const std::size_t nl = f.l_start_.back();
  const std::size_t nu = f.u_start_.back();
  f.l_row_.resize(nl);
  f.l_row_.shrink_to_fit();
  f.l_val_.resize(nl);
  f.l_val_.shrink_to_fit();
  f.u_col_.resize(nu);
  f.u_col_.shrink_to_fit();
  f.u_val_.resize(nu);
  f.u_val_.shrink_to_fit();
  f.position_of_row_ = {};
  return f;
}

namespace {

/// Grows a pattern buffer to at least `need` slots.  Only a new high-water
/// mark allocates; refactors of the same shape reuse the storage.
template <class V>
void reserve_slots(V& v, std::size_t need) {
  if (v.size() < need) v.resize(std::max(need, 2 * v.size()));
}

}  // namespace

bool LuFactorization::factor(const Matrix& a, double pivot_tol) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  assert(n < (std::size_t{1} << 32));
  lu_ = a;  // vector copy-assignment: reuses capacity once warmed up
  perm_.resize(n);
  sign_ = 1;
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  l_start_.resize(n + 1);
  u_start_.resize(n + 1);
  l_start_[0] = 0;
  u_start_[0] = 0;
  std::size_t nl = 0;
  std::size_t nu = 0;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude entry in column k.
    std::size_t piv = k;
    double best = std::fabs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::fabs(lu_(r, k));
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best <= pivot_tol) return false;
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(piv, c));
      std::swap(perm_[k], perm_[piv]);
      sign_ = -sign_;
    }
    // Row k is final from here on: record U's nonzeros right of the
    // diagonal.  Every slot is written; only a nonzero advances the count.
    reserve_slots(u_col_, nu + n);
    reserve_slots(u_val_, nu + n);
    const double* u_row = lu_.row(k).data();
    for (std::size_t c = k + 1; c < n; ++c) {
      u_col_[nu] = static_cast<std::uint32_t>(c);
      u_val_[nu] = u_row[c];
      nu += u_row[c] != 0.0;
    }
    u_start_[k + 1] = static_cast<std::uint32_t>(nu);

    reserve_slots(l_row_, nl + n);
    reserve_slots(l_val_, nl + n);
    const double inv_piv = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = lu_(r, k) * inv_piv;
      lu_(r, k) = m;
      if (m == 0.0) continue;
      // Keyed by the row's identity: later swaps may still move it.
      l_row_[nl] = static_cast<std::uint32_t>(perm_[r]);
      l_val_[nl] = m;
      ++nl;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= m * lu_(k, c);
    }
    l_start_[k + 1] = static_cast<std::uint32_t>(nl);
  }

  // Map each multiplier's row identity to the row's final position.
  position_of_row_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    position_of_row_[perm_[i]] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t p = 0; p < nl; ++p) l_row_[p] = position_of_row_[l_row_[p]];
  return true;
}

Vec LuFactorization::solve(std::span<const double> b) const {
  Vec x;
  solve_into(b, x);
  return x;
}

void LuFactorization::solve_into(std::span<const double> b, Vec& x) const {
  const std::size_t n = size();
  assert(b.size() == n);
  assert(x.data() != b.data());
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // Forward-substitute L (unit diagonal) column by column: every x[i] still
  // takes its terms in ascending column order, as the dense row loop does.
  for (std::size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    for (std::uint32_t p = l_start_[k]; p < l_start_[k + 1]; ++p) {
      x[l_row_[p]] -= l_val_[p] * xk;
    }
  }
  // Back-substitute U.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::uint32_t p = u_start_[ii]; p < u_start_[ii + 1]; ++p) {
      acc -= u_val_[p] * x[u_col_[p]];
    }
    x[ii] = acc / lu_(ii, ii);
  }
}

double LuFactorization::determinant() const {
  double det = static_cast<double>(sign_);
  for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

std::optional<Vec> solve_linear(const Matrix& a, std::span<const double> b,
                                double pivot_tol) {
  auto f = LuFactorization::compute(a, pivot_tol);
  if (!f) return std::nullopt;
  return f->solve(b);
}

RowEchelon row_reduce(Matrix a, double tol) {
  RowEchelon out;
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < cols && pivot_row < rows; ++col) {
    // Find pivot in this column at or below pivot_row.
    std::size_t best_row = pivot_row;
    double best = std::fabs(a(pivot_row, col));
    for (std::size_t r = pivot_row + 1; r < rows; ++r) {
      const double v = std::fabs(a(r, col));
      if (v > best) {
        best = v;
        best_row = r;
      }
    }
    if (best <= tol) continue;
    if (best_row != pivot_row) {
      for (std::size_t c = 0; c < cols; ++c)
        std::swap(a(pivot_row, c), a(best_row, c));
    }
    const double inv = 1.0 / a(pivot_row, col);
    for (std::size_t c = col; c < cols; ++c) a(pivot_row, c) *= inv;
    a(pivot_row, col) = 1.0;
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == pivot_row) continue;
      const double m = a(r, col);
      if (m == 0.0) continue;
      for (std::size_t c = col; c < cols; ++c) a(r, c) -= m * a(pivot_row, c);
      a(r, col) = 0.0;
    }
    out.pivots.push_back(col);
    ++pivot_row;
  }
  out.rank = pivot_row;
  out.reduced = std::move(a);
  return out;
}

Matrix nullspace_basis(const Matrix& a, double tol) {
  const RowEchelon re = row_reduce(a, tol);
  const std::size_t cols = a.cols();
  std::vector<bool> is_pivot(cols, false);
  for (std::size_t p : re.pivots) is_pivot[p] = true;

  std::vector<std::size_t> free_cols;
  for (std::size_t c = 0; c < cols; ++c)
    if (!is_pivot[c]) free_cols.push_back(c);

  Matrix basis(cols, free_cols.size(), 0.0);
  for (std::size_t k = 0; k < free_cols.size(); ++k) {
    const std::size_t fc = free_cols[k];
    basis(fc, k) = 1.0;
    // Pivot variable values: x_pivot = -R(pivot_row, free_col).
    for (std::size_t pr = 0; pr < re.pivots.size(); ++pr) {
      basis(re.pivots[pr], k) = -re.reduced(pr, fc);
    }
  }
  return basis;
}

Matrix orthonormalize_columns(const Matrix& a, double tol) {
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  std::vector<Vec> basis;
  basis.reserve(cols);

  Vec v(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) v[r] = a(r, c);
    // Modified Gram-Schmidt: subtract projections sequentially.
    for (const Vec& q : basis) {
      const double proj = dot(v, q);
      axpy(v, -proj, q);
    }
    const double n = norm2(v);
    if (n > tol) {
      Vec q = v;
      scale_inplace(q, 1.0 / n);
      basis.push_back(std::move(q));
    }
  }

  Matrix out(rows, basis.size());
  for (std::size_t c = 0; c < basis.size(); ++c) {
    for (std::size_t r = 0; r < rows; ++r) out(r, c) = basis[c][r];
  }
  return out;
}

}  // namespace rmp::num
