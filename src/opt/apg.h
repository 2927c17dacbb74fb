// Nesterov's accelerated projected gradient with backtracking line search —
// paper Algorithm 2 as written. The ALM loop solves its L-subproblem with
// the specialized opt::QuadraticApg; this generic solver is the oracle the
// tests check QuadraticApg against.
//
// Solves  min_X f(X)  s.t.  X ∈ C,  given ∇f and the Euclidean projector
// onto C. The backtracking rule doubles a local Lipschitz estimate ω until
// the standard quadratic upper bound holds (paper Algorithm 2, lines 6–13),
// and the momentum sequence is the usual δ_t = (1 + √(1 + 4δ_{t−1}²))/2.

#ifndef LRM_OPT_APG_H_
#define LRM_OPT_APG_H_

#include <functional>

#include "base/status_or.h"
#include "linalg/matrix.h"

namespace lrm::opt {

/// Objective value at X.
using MatrixObjective = std::function<double(const linalg::Matrix&)>;
/// Gradient ∇f(X).
using MatrixGradient = std::function<linalg::Matrix(const linalg::Matrix&)>;
/// In-place Euclidean projection onto the feasible set.
using MatrixProjection = std::function<void(linalg::Matrix&)>;

/// \brief Options for AcceleratedProjectedGradient.
struct ApgOptions {
  /// Hard cap on accepted iterations.
  int max_iterations = 200;
  /// Stop when ‖X_{t+1} − X_t‖_F ≤ tolerance · max(1, ‖X_t‖_F).
  double tolerance = 1e-8;
  /// Initial Lipschitz estimate ω⁽⁰⁾ (paper initializes to 1).
  double initial_lipschitz = 1.0;
  /// Backtracking growth factor (paper doubles: ω = 2ʲ ω⁽ᵗ⁻¹⁾).
  double lipschitz_growth = 2.0;
  /// Cap on backtracking steps per iteration.
  int max_backtracks = 60;
};

/// \brief Result of an APG run.
struct ApgResult {
  linalg::Matrix solution;
  /// Accepted (outer) iterations.
  int iterations = 0;
  /// True if the movement tolerance was met before max_iterations.
  bool converged = false;
  /// Objective at the solution.
  double final_objective = 0.0;
  /// Final Lipschitz estimate (useful as a warm start).
  double final_lipschitz = 1.0;
};

/// \brief Minimizes f over the feasible set from `initial` (assumed
/// feasible; it is projected once on entry to be safe).
///
/// \returns kInvalidArgument for null callbacks; a NotConverged *status is
/// not* returned — hitting max_iterations is reported via
/// ApgResult::converged so callers inside ALM loops can keep the iterate.
StatusOr<ApgResult> AcceleratedProjectedGradient(
    const MatrixObjective& objective, const MatrixGradient& gradient,
    const MatrixProjection& projection, const linalg::Matrix& initial,
    const ApgOptions& options = {});

}  // namespace lrm::opt

#endif  // LRM_OPT_APG_H_
