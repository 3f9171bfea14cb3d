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

}  // namespace
}  // namespace rmp::num
