#include "numeric/ode.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "numeric/workspace.hpp"

namespace rmp::num {

namespace {

/// Weighted RMS error norm used for adaptive step-size control.
double error_norm(std::span<const double> err, std::span<const double> y0,
                  std::span<const double> y1, double abs_tol, double rel_tol) {
  double acc = 0.0;
  for (std::size_t i = 0; i < err.size(); ++i) {
    const double scale =
        abs_tol + rel_tol * std::max(std::fabs(y0[i]), std::fabs(y1[i]));
    const double e = err[i] / scale;
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(err.size()));
}

/// Forward-difference Jacobian of f at (t, y) into `j`, counting the n + 1
/// RHS evaluations (base + one per column) in `rhs_evals`.  The difference
/// base f(t, y) is left in `base` for the caller.  Scratch from ws.
void fd_jacobian(OdeRhs f, double t, std::span<const double> y, double eps,
                 Workspace& ws, Matrix& j, Vec& base, std::size_t& rhs_evals) {
  const std::size_t n = y.size();
  ScratchVec pert(ws, n), yp(ws, n);
  yp.get().assign(y.begin(), y.end());
  base.assign(n, 0.0);
  f(t, y, base);
  ++rhs_evals;
  for (std::size_t c = 0; c < n; ++c) {
    const double h = eps * std::max(1.0, std::fabs(y[c]));
    const double saved = yp[c];
    yp[c] = saved + h;
    pert.get().assign(n, 0.0);
    f(t, yp, pert.get());
    ++rhs_evals;
    yp[c] = saved;
    const double inv_h = 1.0 / h;
    for (std::size_t r = 0; r < n; ++r) j(r, c) = (pert[r] - base[r]) * inv_h;
  }
}

/// Factors W = I - gamma h J into `lu` (W built in the caller's scratch `w`),
/// counting the factorization.  False when W is singular.
bool factor_w(const Matrix& j, double h, Matrix& w, LuFactorization& lu,
              OdeResult& stats) {
  const std::size_t n = j.rows();
  const double gamma = 1.0 - 1.0 / std::sqrt(2.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      w(r, c) = (r == c ? 1.0 : 0.0) - gamma * h * j(r, c);
  ++stats.lu_factorizations;
  return lu.factor(w);
}

// One ROS2 step (Verwer's 2-stage, order-2, L-stable Rosenbrock) from (t, y)
// with step h, given f0 = f(t, y) and W = I - gamma h J already factored.
void ros2_step(OdeRhs f, double t, const Vec& y, const Vec& f0, double h,
               const LuFactorization& lu, Vec& y_new, Workspace& ws,
               OdeResult& stats) {
  const std::size_t n = y.size();
  ScratchVec k1(ws, n), y1(ws, n), f1(ws, n), rhs2(ws, n), k2(ws, n);
  lu.solve_into(f0, k1.get());

  y1.get() = y;
  axpy(y1.get(), h, k1);
  f1.get().assign(n, 0.0);
  f(t + h, y1, f1.get());
  ++stats.rhs_evals;
  for (std::size_t i = 0; i < n; ++i) rhs2[i] = f1[i] - 2.0 * k1[i];
  lu.solve_into(rhs2, k2.get());

  y_new = y;
  for (std::size_t i = 0; i < n; ++i) y_new[i] += h * (1.5 * k1[i] + 0.5 * k2[i]);
}

/// Builds the augmented-system Jacobian (df/dy block; appended time state
/// contributes a zero row/column under an analytic Jacobian, the FD path
/// picks up df/dt for forced problems) into `j`, and f(t, y) into `f0`
/// (the FD path's difference base, so it is evaluated once).
void rosenbrock_jacobian(OdeRhs f, OdeJacobian user_jac, double t,
                         const Vec& y_aug, std::size_t n_user, Workspace& ws,
                         Matrix& j, Vec& f0, OdeResult& res) {
  if (user_jac) {
    ScratchMat ju(ws, n_user, n_user);
    user_jac(y_aug[n_user], std::span<const double>(y_aug).first(n_user),
             ju.get());
    std::fill(j.data().begin(), j.data().end(), 0.0);
    for (std::size_t r = 0; r < n_user; ++r) {
      for (std::size_t c = 0; c < n_user; ++c) j(r, c) = ju(r, c);
    }
    f0.assign(y_aug.size(), 0.0);
    f(t, y_aug, f0);
    ++res.rhs_evals;
  } else {
    fd_jacobian(f, t, y_aug, 1e-7, ws, j, f0, res.rhs_evals);
  }
  ++res.jacobian_evals;
}

// Rosenbrock-W driver with step-doubling (Richardson) error control: the
// naive embedded order-1 estimate of ROS2 is wildly pessimistic on stiff
// components, so each step is compared against two half steps instead.
// Both half steps use the same W(h/2), so an attempt factors two matrices,
// W(h) and W(h/2), and the full step and the first half step share
// f(t, y): 2 LUs and 5 RHS evaluations per attempt.  A rejected attempt
// retries from the same (t, y), so it keeps J and f(t, y) and costs 4 RHS
// evaluations and no Jacobian.
//
// ROS2's order-2 accuracy requires an autonomous system; time is therefore
// appended as an extra state (Y = [y; t], dt/dt = 1), which also makes the
// numeric Jacobian pick up the df/dt column for forced problems.
OdeResult integrate_rosenbrock(OdeRhs f_user, double t0,
                               std::span<const double> y0, double t_end,
                               const OdeOptions& opts, Workspace& ws) {
  const std::size_t n_user = y0.size();
  ScratchVec inner_d(ws, n_user);
  auto augmented = [&f_user, n_user, &inner_d](
                       double, std::span<const double> y, Vec& d) {
    // The last state is time itself.
    inner_d.get().assign(n_user, 0.0);
    f_user(y[n_user], y.first(n_user), inner_d.get());
    for (std::size_t i = 0; i < n_user; ++i) d[i] = inner_d[i];
    d[n_user] = 1.0;
  };
  const OdeRhs f = augmented;

  OdeResult res;
  res.y.assign(y0.begin(), y0.end());
  res.y.push_back(t0);
  res.t = t0;
  const std::size_t n = res.y.size();

  ScratchVec y_full(ws, n), y_half(ws, n), y_two(ws, n), err(ws, n);
  ScratchVec f0(ws, n), f_half(ws, n);
  ScratchMat j(ws, n, n), w(ws, n, n);
  ScratchLu lu_full(ws), lu_half(ws);
  double h = std::clamp(opts.initial_step, opts.min_step, opts.max_step);
  bool fresh = true;  // (t, y) moved since J and f(t, y) were evaluated

  while (res.t < t_end && res.steps < opts.max_steps) {
    res.last_step = h;  // the controller's h, before end-of-interval truncation
    h = std::min(h, t_end - res.t);

    if (fresh) {
      rosenbrock_jacobian(f, opts.jacobian, res.t, res.y, n_user, ws, j.get(),
                          f0.get(), res);
      fresh = false;
    }

    const bool ok =
        factor_w(j.get(), h, w.get(), lu_full.get(), res) &&
        factor_w(j.get(), 0.5 * h, w.get(), lu_half.get(), res);
    if (!ok) {
      h *= 0.5;
      ++res.rejected;
      if (h < opts.min_step) {
        res.y.pop_back();
        return res;
      }
      continue;
    }
    ros2_step(f, res.t, res.y, f0, h, lu_full.get(), y_full.get(), ws, res);
    ros2_step(f, res.t, res.y, f0, 0.5 * h, lu_half.get(), y_half.get(), ws,
              res);
    f_half.get().assign(n, 0.0);
    f(res.t + 0.5 * h, y_half, f_half.get());
    ++res.rhs_evals;
    ros2_step(f, res.t + 0.5 * h, y_half.get(), f_half, 0.5 * h,
              lu_half.get(), y_two.get(), ws, res);

    // Richardson: for an order-2 method the half-step solution's error is
    // ~(y_two - y_full) / 3; local extrapolation gives one extra order.
    for (std::size_t i = 0; i < n; ++i) err[i] = (y_two[i] - y_full[i]) / 3.0;
    const double en = error_norm(err, res.y, y_two, opts.abs_tol, opts.rel_tol);

    if (en <= 1.0 && all_finite(y_two)) {
      res.t += h;
      res.y = y_two.get();
      add_inplace(res.y, err);  // local extrapolation
      if (opts.state_floor > -1e299) {
        for (std::size_t i = 0; i < n_user; ++i) {
          res.y[i] = std::max(res.y[i], opts.state_floor);
        }
      }
      res.y[n_user] = res.t;  // keep the time state exact
      ++res.steps;
      fresh = true;
      const double factor =
          en > 0.0 ? std::clamp(0.9 * std::pow(en, -1.0 / 3.0), 0.2, 5.0) : 5.0;
      h = std::clamp(h * factor, opts.min_step, opts.max_step);
    } else {
      ++res.rejected;
      h *= 0.5;
      if (h < opts.min_step) {
        res.y.pop_back();
        return res;
      }
    }
  }
  res.success = res.t >= t_end;
  res.y.pop_back();  // strip the internal time state
  return res;
}

}  // namespace

OdeResult integrate(const OdeRhs& f, double t0, std::span<const double> y0, double t_end,
                    const OdeOptions& opts) {
  assert(t_end >= t0);
  Workspace& ws =
      opts.workspace ? *opts.workspace : Workspace::thread_local_instance();
  return integrate_rosenbrock(f, t0, y0, t_end, opts, ws);
}

}  // namespace rmp::num
