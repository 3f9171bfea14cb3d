// Linear programming: bounded-variable revised simplex.
//
// Flux Balance Analysis is the LP
//     maximize c^T v   subject to  S v = 0,  lo <= v <= hi
// over a genome-scale stoichiometric matrix S.  This solver implements the
// two-phase primal simplex for exactly that standard form:
//   * general variable bounds (finite or infinite on either side),
//   * phase 1 with one artificial variable per row,
//   * Dantzig pricing with an automatic switch to Bland's rule when cycling
//     is suspected,
//   * dense explicit basis inverse maintained by product-form updates with
//     periodic refactorization for numerical hygiene.
// The genome-scale instances (~500 rows x ~600 columns) are a few percent
// nonzero, so the solver builds a column index of the constraint matrix's
// nonzeros once and prices, forms B^-1 a_j and rebuilds the basic values by
// walking it, in the dense loops' row order (only exact-zero terms are
// skipped, so results are bitwise those of the dense walk).  The inverse's
// rebuild solves against an LU whose solves walk the factors' nonzero
// pattern (matrix.hpp).
#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"
#include "numeric/vec.hpp"

namespace rmp::num {

inline constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

[[nodiscard]] std::string to_string(LpStatus s);

struct LpProblem {
  // maximize objective . x  s.t.  constraint_matrix * x = rhs, lower <= x <= upper
  Matrix constraint_matrix;  ///< m x n, dense
  Vec rhs;                   ///< m
  Vec objective;             ///< n
  Vec lower;                 ///< n (may be -kLpInfinity)
  Vec upper;                 ///< n (may be +kLpInfinity)

  [[nodiscard]] std::size_t num_rows() const { return constraint_matrix.rows(); }
  [[nodiscard]] std::size_t num_cols() const { return constraint_matrix.cols(); }

  /// Convenience constructor from a sparse constraint matrix.
  [[nodiscard]] static LpProblem from_sparse(const SparseMatrix& a, Vec rhs, Vec objective,
                                             Vec lower, Vec upper);
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  Vec x;                       ///< primal solution (valid when optimal)
  double objective_value = 0;  ///< c^T x
  std::size_t iterations = 0;  ///< simplex pivots over both phases
};

struct LpOptions {
  std::size_t max_iterations = 50'000;
  double feasibility_tol = 1e-8;
  double optimality_tol = 1e-9;
  double pivot_tol = 1e-10;
  std::size_t refactor_interval = 120;
};

[[nodiscard]] LpSolution solve_lp(const LpProblem& problem, const LpOptions& opts = {});

}  // namespace rmp::num
