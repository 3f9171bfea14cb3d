// Dense row-major matrix with the factorizations the library needs:
// LU with partial pivoting (linear solves, determinants), and Gaussian
// elimination with full row reduction (rank, null-space basis — used to
// parameterize the steady-state flux space of metabolic networks).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "numeric/vec.hpp"

namespace rmp::num {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] const Vec& data() const { return data_; }
  [[nodiscard]] Vec& data() { return data_; }

  /// Re-shape in place to rows x cols, zero-filled.  Reuses the existing
  /// storage when capacity suffices — the workspace arena's resize path.
  void reshape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  /// Identity matrix of size n.
  [[nodiscard]] static Matrix identity(std::size_t n);

  /// y = A * x (no aliasing between y and x).
  void multiply(std::span<const double> x, Vec& y) const;
  [[nodiscard]] Vec multiply(std::span<const double> x) const;

  /// y = A^T * x.
  void multiply_transposed(std::span<const double> x, Vec& y) const;
  [[nodiscard]] Vec multiply_transposed(std::span<const double> x) const;

  /// C = A * B.
  [[nodiscard]] Matrix multiply(const Matrix& b) const;

  [[nodiscard]] Matrix transposed() const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Vec data_;
};

/// LU factorization with partial pivoting of a square matrix.
/// Usable for repeated solves against the same matrix.
///
/// factor() runs the dense partial-pivot elimination and, as it goes,
/// records where the factors are nonzero: U row k's columns at step k (row k
/// is final once its pivot is swapped in), and L column k's multipliers
/// keyed by row identity, mapped to their final positions after the last
/// row swap.  solve_into() then walks only those entries, in the same
/// ascending order the dense triangular loops use.  The only terms it drops
/// are exact `acc -= 0 * x` terms, so for finite data a solution equals the
/// dense solve's bitwise, except that +0 and -0 may trade places; with
/// non-finite data, whether the result is all finite still agrees.  The
/// pattern is O(nnz) storage with 32-bit indices; it allocates nothing once
/// warm to the densest pattern factored so far.  The dense oracle the
/// contract is tested against lives in tests/numeric/lu_oracle.hpp.
class LuFactorization {
 public:
  /// Factors `a`; returns std::nullopt when the matrix is (numerically)
  /// singular relative to `pivot_tol`.
  [[nodiscard]] static std::optional<LuFactorization> compute(const Matrix& a,
                                                              double pivot_tol = 1e-12);

  /// In-place refactor reusing this object's storage (allocation-free once
  /// warmed to the problem size).  Returns false when `a` is numerically
  /// singular relative to `pivot_tol`; the factorization is then invalid
  /// until the next successful factor()/compute().
  bool factor(const Matrix& a, double pivot_tol = 1e-12);

  /// Solves A x = b.
  [[nodiscard]] Vec solve(std::span<const double> b) const;

  /// Solves A x = b into a caller-owned buffer (resized to n; reuses
  /// capacity).  `x` must not alias `b`.
  void solve_into(std::span<const double> b, Vec& x) const;

  /// Determinant of the factored matrix.
  [[nodiscard]] double determinant() const;

  [[nodiscard]] std::size_t size() const { return lu_.rows(); }

  /// The packed factors, as the dense elimination leaves them: the unit
  /// lower triangle's multipliers below the diagonal, U on and above it.
  [[nodiscard]] const Matrix& factors() const { return lu_; }
  /// Row permutation: row i of the factors is row permutation()[i] of A.
  [[nodiscard]] std::span<const std::size_t> permutation() const { return perm_; }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  int sign_ = 1;
  // L by column: column k's multipliers are l_val_[l_start_[k] ..
  // l_start_[k + 1]), in rows l_row_[...].  U by row: row k's entries right
  // of the diagonal are u_val_[u_start_[k] .. u_start_[k + 1]), in columns
  // u_col_[...], ascending.  factor() leaves spare slots past the last used
  // one so warm refactors never reallocate; compute() trims them.
  std::vector<std::uint32_t> l_start_, l_row_, u_start_, u_col_;
  Vec l_val_, u_val_;
  std::vector<std::uint32_t> position_of_row_;  // factor() scratch
};

/// Convenience: solve A x = b once; nullopt if singular.
[[nodiscard]] std::optional<Vec> solve_linear(const Matrix& a, std::span<const double> b,
                                              double pivot_tol = 1e-12);

/// Result of row-reducing a (possibly rectangular) matrix.
struct RowEchelon {
  Matrix reduced;                    ///< reduced row-echelon form
  std::vector<std::size_t> pivots;   ///< pivot column of each pivot row
  std::size_t rank = 0;
};

/// Gauss–Jordan reduction with partial pivoting; `tol` decides rank.
[[nodiscard]] RowEchelon row_reduce(Matrix a, double tol = 1e-10);

/// Orthonormal-free null-space basis of A (columns are basis vectors of
/// {x : A x = 0}), built from the reduced row-echelon form.  The basis has
/// cols(A) - rank(A) columns.
[[nodiscard]] Matrix nullspace_basis(const Matrix& a, double tol = 1e-10);

/// Modified Gram-Schmidt orthonormalization of the columns of `a`; columns
/// that become (numerically) zero are dropped.  Returns the orthonormal
/// basis as columns.
[[nodiscard]] Matrix orthonormalize_columns(const Matrix& a, double tol = 1e-10);

}  // namespace rmp::num
