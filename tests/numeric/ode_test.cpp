#include "numeric/ode.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rmp::num {
namespace {

// y' = -y, y(0) = 1  =>  y(t) = exp(-t).
const OdeRhs kDecay = [](double, std::span<const double> y, Vec& d) {
  d[0] = -y[0];
};

// Harmonic oscillator: y'' = -y as a 2-state system; energy is conserved.
const OdeRhs kOscillator = [](double, std::span<const double> y, Vec& d) {
  d[0] = y[1];
  d[1] = -y[0];
};

// Classic stiff problem: y' = -1000 (y - cos(t)) - sin(t); y -> cos(t).
const OdeRhs kStiff = [](double t, std::span<const double> y, Vec& d) {
  d[0] = -1000.0 * (y[0] - std::cos(t)) - std::sin(t);
};

// Robertson's chemical kinetics (Hairer & Wanner, Solving ODEs II, §IV.1):
// rate constants spanning 11 orders of magnitude, the standard stiff test.
const OdeRhs kRobertson = [](double, std::span<const double> y, Vec& d) {
  d[0] = -0.04 * y[0] + 1e4 * y[1] * y[2];
  d[1] = 0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] * y[1];
  d[2] = 3e7 * y[1] * y[1];
};

const OdeJacobian kRobertsonJacobian = [](double, std::span<const double> y,
                                          Matrix& j) {
  j(0, 0) = -0.04;
  j(0, 1) = 1e4 * y[2];
  j(0, 2) = 1e4 * y[1];
  j(1, 0) = 0.04;
  j(1, 1) = -1e4 * y[2] - 6e7 * y[1];
  j(1, 2) = -1e4 * y[1];
  j(2, 1) = 6e7 * y[1];
};

OdeResult integrate_robertson() {
  OdeOptions opts;
  opts.initial_step = 1e-6;
  opts.max_step = 10.0;
  opts.jacobian = kRobertsonJacobian;
  return integrate(kRobertson, 0.0, Vec{1.0, 0.0, 0.0}, 40.0, opts);
}

// Acceptance tolerance on the final value.
constexpr double kTolerance = 1e-4;

TEST(OdeTest, ExponentialDecay) {
  OdeOptions opts;
  opts.initial_step = 1e-3;
  const OdeResult r = integrate(kDecay, 0.0, Vec{1.0}, 2.0, opts);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.y[0], std::exp(-2.0), kTolerance);
}

TEST(OdeTest, OscillatorPhase) {
  OdeOptions opts;
  opts.initial_step = 1e-3;
  opts.abs_tol = 1e-9;
  opts.rel_tol = 1e-8;
  const double t_end = 3.14159265358979323846;  // half period
  const OdeResult r = integrate(kOscillator, 0.0, Vec{1.0, 0.0}, t_end, opts);
  ASSERT_TRUE(r.success);
  // After half a period the state is (-1, 0).
  EXPECT_NEAR(r.y[0], -1.0, 50 * kTolerance);
  EXPECT_NEAR(r.y[1], 0.0, 50 * kTolerance);
}

TEST(OdeTest, StiffProblemWithRosenbrock) {
  OdeOptions opts;
  opts.initial_step = 1e-4;
  opts.max_step = 0.5;
  const OdeResult r = integrate(kStiff, 0.0, Vec{0.0}, 5.0, opts);
  ASSERT_TRUE(r.success);
  EXPECT_NEAR(r.y[0], std::cos(5.0), 1e-3);
}

TEST(OdeTest, AdaptiveTightensWithTolerance) {
  OdeOptions loose;
  loose.abs_tol = 1e-4;
  loose.rel_tol = 1e-3;
  OdeOptions tight = loose;
  tight.abs_tol = 1e-12;
  tight.rel_tol = 1e-11;

  const OdeResult rl = integrate(kDecay, 0.0, Vec{1.0}, 2.0, loose);
  const OdeResult rt = integrate(kDecay, 0.0, Vec{1.0}, 2.0, tight);
  ASSERT_TRUE(rl.success && rt.success);
  const double exact = std::exp(-2.0);
  EXPECT_LE(std::fabs(rt.y[0] - exact), std::fabs(rl.y[0] - exact) + 1e-15);
  EXPECT_GT(rt.steps, rl.steps);
}

TEST(OdeTest, StateFloorEnforced) {
  OdeOptions opts;
  opts.state_floor = 0.0;
  // Aggressive decay would overshoot below zero with large steps; the floor
  // keeps concentrations physical.
  const OdeRhs f = [](double, std::span<const double> y, Vec& d) {
    d[0] = -5.0 * y[0] - 0.1;
  };
  const OdeResult r = integrate(f, 0.0, Vec{1.0}, 10.0, opts);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.y[0], 0.0);
}

TEST(OdeTest, ZeroLengthIntervalIsIdentity) {
  const OdeResult r = integrate(kDecay, 1.0, Vec{0.7}, 1.0, {});
  EXPECT_TRUE(r.success);
  EXPECT_DOUBLE_EQ(r.y[0], 0.7);
  EXPECT_EQ(r.steps, 0u);
}

// The final state of one stiff run, pinned to the bit (hex floats recorded
// when each attempt still factored three W's with dense LU solves).  A
// change to how ROW2 schedules its work must leave every bit where it was.
TEST(OdeTest, RobertsonFinalStateIsPinned) {
  const OdeResult r = integrate_robertson();
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.steps, 98u);
  EXPECT_EQ(r.rejected, 1u);
  ASSERT_EQ(r.y.size(), 3u);
  EXPECT_EQ(r.y[0], 0x1.6e80d87f03ac4p-1);
  EXPECT_EQ(r.y[1], 0x1.34375cb8dd83bp-17);
  EXPECT_EQ(r.y[2], 0x1.22fbe6933f369p-2);
  EXPECT_EQ(r.t, 40.0);
  EXPECT_EQ(r.last_step, 0x1.05d3ad6b1b52dp+1);
}

// The same run on the finite-difference Jacobian path, pinned the same way.
TEST(OdeTest, RobertsonFdFinalStateIsPinned) {
  OdeOptions opts;
  opts.initial_step = 1e-6;
  opts.max_step = 10.0;
  const OdeResult r = integrate(kRobertson, 0.0, Vec{1.0, 0.0, 0.0}, 40.0, opts);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.steps, 98u);
  EXPECT_EQ(r.rejected, 1u);
  ASSERT_EQ(r.y.size(), 3u);
  EXPECT_EQ(r.y[0], 0x1.6e80d8458001dp-1);
  EXPECT_EQ(r.y[1], 0x1.34377bf8ba8d3p-17);
  EXPECT_EQ(r.y[2], 0x1.22fbe706080a2p-2);
  EXPECT_EQ(r.t, 40.0);
  EXPECT_EQ(r.last_step, 0x1.04c35d63db2cbp+1);
}

// The work ROW2 spends per attempt, as hard counts: W(h) and W(h/2) are
// each factored once (both half steps share the second), f(t, y) is shared
// by the full step and the first half step, and a retry from the same
// (t, y) reuses J and f(t, y).
TEST(OdeTest, Row2WorkPerAttempt) {
  const OdeResult r = integrate_robertson();
  ASSERT_TRUE(r.success);
  ASSERT_GT(r.rejected, 0u);  // the run must include a retry
  const std::size_t attempts = r.steps + r.rejected;
  EXPECT_EQ(r.lu_factorizations, 2 * attempts);
  EXPECT_EQ(r.jacobian_evals, r.steps);
  EXPECT_EQ(r.rhs_evals, 5 * r.steps + 4 * r.rejected);

  // Without a closed-form Jacobian each fresh attempt also pays the n
  // perturbed finite-difference calls on the augmented state [y; t]; the
  // difference base is the shared f(t, y).
  OdeOptions opts;
  opts.initial_step = 1e-4;
  opts.max_step = 0.5;
  const OdeResult fd = integrate(kStiff, 0.0, Vec{0.0}, 5.0, opts);
  ASSERT_TRUE(fd.success);
  EXPECT_EQ(fd.lu_factorizations, 2 * (fd.steps + fd.rejected));
  EXPECT_EQ(fd.jacobian_evals, fd.steps);
  EXPECT_EQ(fd.rhs_evals, (4 + 3) * fd.steps + 4 * fd.rejected);
}

}  // namespace
}  // namespace rmp::num
