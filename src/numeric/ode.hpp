// ODE initial-value-problem integrator for the stiff kinetic models.
//
// The C3 carbon-metabolism model is a moderately stiff system of ~30 coupled
// Michaelis-Menten rate equations; the paper's substrate (SUNDIALS-class
// solvers) is reproduced here with one linearly implicit method: a
// 2nd-order L-stable Rosenbrock-W method (ROW2, step-doubling error
// control: one full step against two half steps that share W(h/2), so two
// LU factorizations per attempt) for the stiff transients of the
// steady-state fallback and the windowed cycle average.  It takes a closed-form Jacobian when the caller
// supplies one and falls back to forward differences otherwise.
#pragma once

#include <span>

#include "numeric/callable.hpp"
#include "numeric/matrix.hpp"
#include "numeric/vec.hpp"

namespace rmp::num {

class Workspace;

/// Right-hand side f(t, y) -> dydt; must not resize dydt (pre-sized to
/// y.size()).  Non-owning (FunctionRef): when stored beyond a call, the
/// callable must be a named lvalue that outlives the store (captureless
/// lambdas excepted; see callable.hpp).
using OdeRhs =
    FunctionRef<void(double t, std::span<const double> y, Vec& dydt)>;

/// Analytic Jacobian df/dy at (t, y); jac arrives pre-sized n x n and
/// zeroed.  Replaces the n+1 RHS evaluations a forward-difference build
/// costs per step.  The df/dt part is treated as zero — exact for
/// autonomous systems (the kinetic models), and safe for forced ones
/// because ROW2 is a W-method: an inexact Jacobian costs step size, never
/// correctness.
using OdeJacobian =
    FunctionRef<void(double t, std::span<const double> y, Matrix& jac)>;

struct OdeOptions {
  double abs_tol = 1e-8;
  double rel_tol = 1e-6;
  double initial_step = 1e-3;
  double min_step = 1e-12;
  double max_step = 1.0;
  std::size_t max_steps = 2'000'000;
  /// Optional floor applied to every state after each accepted step
  /// (concentrations cannot go negative; kinetic models rely on this).
  double state_floor = -1e300;
  /// Closed-form Jacobian; null = finite differences (see OdeJacobian).
  OdeJacobian jacobian;
  /// Scratch arena for stage vectors, Jacobians and LU storage.  Null = a
  /// thread_local fallback arena; either way the integrator allocates
  /// nothing per step once the arena is warm.  Not owned; single-threaded.
  Workspace* workspace = nullptr;
};

struct OdeResult {
  Vec y;                    ///< state at final time
  double t = 0.0;           ///< time actually reached
  std::size_t steps = 0;    ///< accepted steps
  std::size_t rejected = 0; ///< rejected trial steps
  /// Work counters.  Each attempt (accepted or rejected) factors W(h) and
  /// W(h/2).  The first attempt from a given (t, y) evaluates J and 5 RHS;
  /// a retry after a rejection reuses J and f(t, y) and evaluates 4 RHS.
  /// rhs_evals also counts a finite-difference Jacobian's n + 1 calls.
  std::size_t rhs_evals = 0;
  std::size_t lu_factorizations = 0;
  std::size_t jacobian_evals = 0;
  bool success = false;     ///< reached t_end
  /// Step size the controller would take next — feed it back as
  /// initial_step when integrating onward from res.y (windowed averaging,
  /// leg-by-leg fallbacks) so every leg after the first skips the ramp-up
  /// from a cold initial_step.
  double last_step = 0.0;
};

/// Integrate y' = f(t, y) from (t0, y0) to t_end with ROW2.
[[nodiscard]] OdeResult integrate(const OdeRhs& f, double t0, std::span<const double> y0,
                                  double t_end, const OdeOptions& opts = {});

}  // namespace rmp::num
