// Shooting solver for stable limit cycles of autonomous ODE systems.
//
// The kinetic engine's oscillatory tail (Hopf-shell candidates) used to be
// handled by brute force: integrate far past the transient and average over
// a long window.  A limit cycle is better characterized as a periodic-orbit
// problem: find (y0, T) with Phi_T(y0) = y0 up to a phase, where Phi is the
// flow map — solved here at the cost of a few one-period flights instead of
// the hundreds of periods the averaging window costs.
//
// Not every oscillatory system HAS an isolated cycle to shoot for.  The C3
// kinetic model near its Hopf shell carries a near-conserved quantity: the
// flow drifts algebraically along a one-parameter family of pseudo-cycles
// (measured: the dominant deflated Floquet multiplier climbs toward 1 over
// successive returns, and the aligned return residual lies almost entirely
// along that single slow direction while the fast components settle to
// ~1e-5 within ONE period).  Phi_T(y) - y then has an irreducible component
// no root-finder can remove, so solve_limit_cycle runs a drift-tolerant
// aligned-Picard iteration instead of Newton: fly one period, phase-align
// the return, deflate the aligned residual along the flow — rounds that
// need no variational ride-along at all, so each costs ONE plain flight.
// The fast Floquet modes contract the residual round over round while the
// family component cannot, so the split falls out of comparing consecutive
// deflated residuals: converged when two rounds agree to tolerance (the
// agreement bounds the fast remainder) and the surviving drift chi is under
// the drift_tolerance budget.  On a genuine isolated cycle chi goes to ~0
// and the same rounds land on the cycle itself.  The answer is an honest
// SNAPSHOT of the pseudo-cycle the trajectory currently occupies — exactly
// the semantics of the windowed-averaging reference it replaces, whose
// window mean is the same snapshot taken at whatever time the window
// covers — with the measured drift reported in ShootingResult::drift.
//
// Once converged, one final pass over the period produces the time-weighted
// cycle average (state + optional scalar observable), the per-component
// amplitude (rejecting fixed points masquerading as cycles), and the
// stability verdict.  Stability splits the same way as convergence: fast
// modes are certified by convergence itself, and the averaging pass rides
// the variational update on the single converged family direction (vprop =
// M * v at ~one extra plain flight's cost) to measure the family multiplier.
//
// Clean give-up contract: every failure mode (the guess sits at a fixed
// point; the period drifts out of bounds; the rounds never agree within
// max_iterations; amplitude below threshold; unstable family mode) returns
// converged = false and callers fall back to long integration.  The solver
// is never silently wrong: a converged result has been re-integrated over
// one full period with the residual re-measured.
//
// estimate_period bootstraps the (y0, T) guess from a trajectory: it
// samples the post-transient flow, picks the most-oscillatory coordinate,
// and reads the period off successive upward mean-crossings.
#pragma once

#include <span>

#include "numeric/ode.hpp"
#include "numeric/vec.hpp"

namespace rmp::num {

/// Scalar observable g(y) averaged over the cycle alongside the state —
/// used for quantities that are nonlinear in the state (CO2 uptake), where
/// g(mean state) != mean of g.
using CycleObservable = FunctionRef<double(std::span<const double> y)>;

struct ShootingOptions {
  /// Integrator for the flow map; the stiff cycle path wants kRosenbrock3.
  OdeOptions ode;
  /// Cap on aligned-Picard rounds (one period flight each).
  std::size_t max_iterations = 30;
  /// Fast-remainder gate: two consecutive deflated residuals must agree to
  /// this, relative to max(1, ||y0||_inf).
  double tolerance = 1e-6;
  /// Admissible period window; the iterate's period leaving it is a clean
  /// give-up (non-periodic or wildly mis-guessed trajectory).
  double min_period = 1e-2;
  double max_period = 1e4;
  /// Reject "cycles" whose largest per-component peak-to-peak amplitude is
  /// below this — a fixed point satisfies Phi_T(y) = y for every T.
  double min_amplitude = 1e-4;
  /// A cycle is declared unstable (converged = false) when the measured
  /// family multiplier magnitude exceeds this.
  double max_floquet_magnitude = 1.2;
  /// Samples per period for the average/amplitude pass.
  std::size_t average_samples = 48;
  /// Step for the forward-difference Jacobian inside the variational
  /// propagator, used only when ode.jacobian is null.
  double fd_eps = 1e-6;
  /// Drift budget for pseudo-cycle FAMILIES (see file comment): accept a
  /// phase-aligned snapshot whose fast residual is at `tolerance` and whose
  /// residual along the slow family direction is at most drift_tolerance *
  /// max(1, ||y0||_inf).  The slow component is reported in
  /// ShootingResult::drift.
  double drift_tolerance = 0.05;
  Workspace* workspace = nullptr;
};

struct ShootingResult {
  bool converged = false;
  Vec cycle_state;            ///< a point on the cycle (phase-pinned)
  double period = 0.0;
  Vec average_state;          ///< time-weighted mean over one period
  double average_observable = 0.0;  ///< 0 when no observable was supplied
  double amplitude = 0.0;     ///< max over components of peak-to-peak range
  double residual = 0.0;      ///< ||Phi_T(y0) - y0||_inf at the returned point
  double floquet_magnitude = 0.0;  ///< measured family multiplier magnitude
  /// |residual component along the slow family direction| at acceptance —
  /// how fast the pseudo-cycle is migrating per period; ~0 on an isolated
  /// cycle.
  double drift = 0.0;
  bool stable = false;
  std::size_t iterations = 0;
  std::size_t rhs_evals = 0;  ///< total RHS work, integrations included
};

[[nodiscard]] ShootingResult solve_limit_cycle(OdeRhs f,
                                               std::span<const double> y0_guess,
                                               double period_guess,
                                               const ShootingOptions& opts = {},
                                               CycleObservable observable = {});

struct PeriodEstimate {
  bool valid = false;
  double period = 0.0;
  Vec anchor_state;  ///< state near an upward mean-crossing (shooting guess)
  std::size_t rhs_evals = 0;
};

/// Samples the trajectory from y0 over `horizon` time units every
/// `dt_sample`, then reads the period off upward mean-crossings of the
/// most-oscillatory coordinate.  Invalid when fewer than three crossings
/// are seen or the crossing intervals disagree by more than 25%.
[[nodiscard]] PeriodEstimate estimate_period(OdeRhs f,
                                             std::span<const double> y0,
                                             double horizon, double dt_sample,
                                             const OdeOptions& ode_opts);

}  // namespace rmp::num
