#include "opt/apg.h"

#include <cmath>
#include <utility>

namespace lrm::opt {

using linalg::Index;
using linalg::Matrix;

namespace {

// <A, B> Frobenius inner product.
double InnerProduct(const Matrix& a, const Matrix& b) {
  double result = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  const Index n = a.size();
  for (Index i = 0; i < n; ++i) result += pa[i] * pb[i];
  return result;
}

// Per-solve scratch hoisted out of the iteration loop. The gradient matrix
// is still produced by the caller's callback each iteration (the generic
// std::function API returns by value); the specialized QuadraticApg solver
// is the fully allocation-free path.
struct ApgWorkspace {
  Matrix s, diff, x_next, step, movement;
};

}  // namespace

StatusOr<ApgResult> AcceleratedProjectedGradient(
    const MatrixObjective& objective, const MatrixGradient& gradient,
    const MatrixProjection& projection, const linalg::Matrix& initial,
    const ApgOptions& options) {
  if (!objective || !gradient || !projection) {
    return Status::InvalidArgument(
        "AcceleratedProjectedGradient: null callback");
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument(
        "AcceleratedProjectedGradient: max_iterations must be > 0");
  }

  Matrix x_prev = initial;
  projection(x_prev);
  Matrix x = x_prev;

  double omega = options.initial_lipschitz;
  double delta_prev = 0.0;  // δ_{t-2} in the paper's indexing
  double delta = 1.0;       // δ_{t-1}

  ApgResult result;
  ApgWorkspace ws;  // loop temporaries, allocated once
  for (int t = 0; t < options.max_iterations; ++t) {
    // Momentum extrapolation S = X_t + α (X_t − X_{t−1}).
    const double alpha = (delta_prev - 1.0) / delta;
    ws.s = x;
    if (alpha != 0.0) {
      ws.diff = x;
      ws.diff -= x_prev;
      ws.s.Axpy(alpha, ws.diff);
    }

    const Matrix grad_s = gradient(ws.s);
    const double f_s = objective(ws.s);

    // Backtracking: find ω with f(X⁺) ≤ f(S) + <∇f(S), X⁺−S> + ω/2‖X⁺−S‖².
    bool accepted = false;
    for (int j = 0; j < options.max_backtracks; ++j) {
      ws.x_next = ws.s;
      ws.x_next.Axpy(-1.0 / omega, grad_s);
      projection(ws.x_next);

      ws.step = ws.x_next;
      ws.step -= ws.s;
      const double step_sq = linalg::SquaredFrobeniusNorm(ws.step);
      const double upper =
          f_s + InnerProduct(grad_s, ws.step) + 0.5 * omega * step_sq;
      if (objective(ws.x_next) <= upper + 1e-12 * std::abs(upper)) {
        accepted = true;
        break;
      }
      omega *= options.lipschitz_growth;
    }
    if (!accepted) {
      // Lipschitz estimate blew up; return the best feasible iterate.
      result.solution = std::move(x);
      result.iterations = t;
      result.converged = false;
      result.final_objective = objective(result.solution);
      result.final_lipschitz = omega;
      return result;
    }

    ws.movement = ws.x_next;
    ws.movement -= x;
    const double move_norm = linalg::FrobeniusNorm(ws.movement);
    const double x_norm = linalg::FrobeniusNorm(x);

    // Rotate: X_prev ← X, X ← X_next; the displaced buffer becomes next
    // iteration's x_next scratch.
    std::swap(x_prev, x);
    std::swap(x, ws.x_next);

    const double next_delta =
        0.5 * (1.0 + std::sqrt(1.0 + 4.0 * delta * delta));
    delta_prev = delta;
    delta = next_delta;

    result.iterations = t + 1;
    if (move_norm <= options.tolerance * std::max(1.0, x_norm)) {
      result.converged = true;
      break;
    }
  }

  result.final_objective = objective(x);
  result.final_lipschitz = omega;
  result.solution = std::move(x);
  return result;
}

}  // namespace lrm::opt
