// Differential test of num::LuFactorization against the dense oracle in
// lu_oracle.hpp.  The library's solves walk only the factors' recorded
// nonzeros; the oracle visits every entry.  Contract (matrix.hpp):
//   * the same inputs are singular for both;
//   * the packed factors and the permutation are bitwise equal;
//   * solutions are bitwise equal, except that +0 and -0 count as equal;
//   * with non-finite inputs, whether the solution is all finite agrees.
// One LuFactorization object is refactored across every case, so stale
// pattern slots from a denser earlier matrix are exercised too.
#include "numeric/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "kinetics/c3model.hpp"
#include "kinetics/scenarios.hpp"
#include "lu_oracle.hpp"
#include "numeric/rng.hpp"

namespace rmp::num {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Checks one matrix (and a few right-hand sides) against the oracle;
/// returns whether the oracle's factorization swapped any row.
bool expect_matches_oracle(LuFactorization& lu, const Matrix& a,
                           const std::vector<Vec>& rhs, const std::string& label) {
  oracle::DenseLu ref;
  const bool ok_ref = ref.factor(a);
  const bool ok = lu.factor(a);
  EXPECT_EQ(ok, ok_ref) << label;
  if (!ok || !ok_ref) return false;

  const std::size_t n = a.rows();
  bool swapped = false;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(lu.permutation()[i], ref.perm[i]) << label << " perm " << i;
    swapped |= ref.perm[i] != i;
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_TRUE(same_bits(lu.factors()(i, c), ref.lu(i, c)))
          << label << " factor (" << i << ", " << c << "): " << lu.factors()(i, c)
          << " vs " << ref.lu(i, c);
    }
  }
  // compute() returns a compacted copy of the same factorization.
  const std::optional<LuFactorization> one_shot = LuFactorization::compute(a);
  EXPECT_TRUE(one_shot.has_value()) << label;
  Vec x;
  for (std::size_t s = 0; s < rhs.size(); ++s) {
    lu.solve_into(rhs[s], x);
    const Vec want = ref.solve(rhs[s]);
    if (one_shot) {
      const Vec y = one_shot->solve(rhs[s]);
      EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end(), same_bits))
          << label << " compute() rhs " << s;
    }
    if (!all_finite(rhs[s]) || !all_finite(a.data())) {
      EXPECT_EQ(all_finite(x), all_finite(want)) << label << " rhs " << s;
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bits(x[i], want[i]) || (x[i] == 0.0 && want[i] == 0.0))
          << label << " rhs " << s << " x[" << i << "]: " << x[i] << " vs " << want[i];
    }
  }
  return swapped;
}

/// Right-hand sides with exact zeros of both signs among random entries.
std::vector<Vec> random_rhs(std::size_t n, Rng& rng) {
  std::vector<Vec> out(3, Vec(n));
  for (std::size_t i = 0; i < n; ++i) {
    out[0][i] = rng.normal();
    out[1][i] = rng.bernoulli(0.5) ? 0.0 : rng.normal();
    out[2][i] = rng.bernoulli(0.7) ? (rng.bernoulli(0.5) ? 0.0 : -0.0) : rng.normal();
  }
  return out;
}

/// Sparse n x n matrix: each entry nonzero with probability `density`,
/// exact zeros of both signs elsewhere.
Matrix random_sparse(std::size_t n, double density, Rng& rng) {
  Matrix a(n, n);
  for (double& v : a.data()) {
    v = rng.bernoulli(density) ? rng.normal() : (rng.bernoulli(0.5) ? 0.0 : -0.0);
  }
  return a;
}

TEST(LuDifferentialTest, RandomSparseMatricesMatchDenseOracle) {
  Rng rng(20261018);
  LuFactorization lu;
  int swapped = 0;
  int factored = 0;
  for (std::size_t n = 1; n <= 60; ++n) {
    for (const double density : {0.05, 0.2, 0.6, 1.0}) {
      // Plain random sparse: often singular, often pivoting.
      const Matrix plain = random_sparse(n, density, rng);
      expect_matches_oracle(lu, plain, random_rhs(n, rng),
                            "plain n=" + std::to_string(n));

      // Nonsingular with forced row swaps: a strong diagonal under a random
      // row permutation, so the pivot search has to undo the permutation.
      Matrix dominant = random_sparse(n, density, rng);
      for (std::size_t i = 0; i < n; ++i) dominant(i, i) = 10.0 + rng.uniform();
      const std::vector<std::size_t> p = rng.permutation(n);
      Matrix shuffled(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < n; ++c) shuffled(i, c) = dominant(p[i], c);
      }
      ++factored;
      if (expect_matches_oracle(lu, shuffled, random_rhs(n, rng),
                                "shuffled n=" + std::to_string(n))) {
        ++swapped;
      }
    }
  }
  EXPECT_GT(swapped, factored / 2);
}

TEST(LuDifferentialTest, SingularInputsFailInBoth) {
  Rng rng(7);
  LuFactorization lu;
  oracle::DenseLu ref;
  for (std::size_t n = 2; n <= 30; ++n) {
    Matrix zero_col = random_sparse(n, 0.5, rng);
    for (std::size_t r = 0; r < n; ++r) zero_col(r, n / 2) = 0.0;
    EXPECT_FALSE(ref.factor(zero_col));
    EXPECT_FALSE(lu.factor(zero_col));

    Matrix twin_rows = random_sparse(n, 0.8, rng);
    for (std::size_t c = 0; c < n; ++c) twin_rows(n - 1, c) = twin_rows(0, c);
    EXPECT_EQ(lu.factor(twin_rows), ref.factor(twin_rows)) << n;
  }
  EXPECT_FALSE(lu.factor(Matrix(4, 4)));
}

TEST(LuDifferentialTest, NonFiniteInputsAgreeOnFiniteness) {
  Rng rng(99);
  LuFactorization lu;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n = 2; n <= 24; ++n) {
    for (const double bad : {inf, -inf, nan}) {
      Matrix a = random_sparse(n, 0.3, rng);
      for (std::size_t i = 0; i < n; ++i) a(i, i) += 5.0;
      std::vector<Vec> rhs = random_rhs(n, rng);
      rhs[1][rng.uniform_index(n)] = bad;
      rhs[2][0] = bad;
      expect_matches_oracle(lu, a, rhs, "bad rhs n=" + std::to_string(n));

      a(rng.uniform_index(n), rng.uniform_index(n)) = bad;
      expect_matches_oracle(lu, a, random_rhs(n, rng),
                            "bad matrix n=" + std::to_string(n));
    }
  }
}

// The matrices ROW2 actually factors: W = I - gamma h J on the augmented
// state [y; t], J from the C3 model's dual-number Jacobian at each Figure-1
// natural state and at perturbations of it, over step sizes from the
// transient's smallest to the window's largest.
TEST(LuDifferentialTest, Row2MatricesFromC3ModelMatchDenseOracle) {
  const double gamma = 1.0 - 1.0 / std::sqrt(2.0);
  const std::size_t n_user = kinetics::kNumMetabolites;
  const std::size_t n = n_user + 1;
  Rng rng(2011);
  LuFactorization lu;
  int cases = 0;
  int swapped = 0;
  for (const kinetics::Scenario& s : kinetics::figure1_scenarios()) {
    const auto model = kinetics::make_model(s);
    const Vec& nat = model->natural_state().state;
    for (int k = 0; k < 4; ++k) {
      Vec y(nat);
      Vec mult(kinetics::kNumEnzymes, 1.0);
      if (k > 0) {
        for (double& v : y) v *= 1.0 + rng.uniform(-0.05, 0.05);
        for (double& v : mult) v = 1.0 + rng.uniform(-0.3, 0.3);
      }
      Vec dydt(n_user);
      Matrix jac;
      model->derivatives_and_jacobian(y, mult, dydt, jac);
      Vec f(dydt);
      f.push_back(1.0);  // the time state
      for (const double h : {1e-3, 0.1, 1.0, 20.0}) {
        Matrix w(n, n);
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t c = 0; c < n; ++c) {
            const double j = r < n_user && c < n_user ? jac(r, c) : 0.0;
            w(r, c) = (r == c ? 1.0 : 0.0) - gamma * h * j;
          }
        }
        std::vector<Vec> rhs = random_rhs(n, rng);
        rhs.push_back(f);
        ++cases;
        if (expect_matches_oracle(lu, w, rhs,
                                  s.label + " k=" + std::to_string(k) +
                                      " h=" + std::to_string(h))) {
          ++swapped;
        }
      }
    }
  }
  // Large steps make J dominate W and the pivot search swap rows (50 of
  // the 96 cases here).
  EXPECT_GT(swapped, cases / 4) << "of " << cases;
}

}  // namespace
}  // namespace rmp::num
