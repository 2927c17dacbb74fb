// Specialized Nesterov solver for the L1-constrained quadratic
//
//     min_X  ½·<X, H·X> − <T, X>    s.t.  ‖X·ⱼ‖₁ ≤ radius for every column j,
//
// with H symmetric positive semi-definite — exactly the L-subproblem of the
// LRM decomposition (paper Formula 10: H = β·BᵀB, T = Bᵀ(βW + π), radius 1).
//
// Unlike the generic AcceleratedProjectedGradient (its test oracle), this
// solver
//  * computes the exact Lipschitz constant λmax(H) once by power iteration
//    (H is r×r — tiny next to the r×n iterate), eliminating backtracking;
//  * runs each step as ONE pass over 64-column blocks of the row-major
//    iterate: momentum point, H·S − T, gradient step, column L1 norms, the
//    sort-free θ search of opt/l1_projection.h, and the movement and ‖X‖
//    sums, all while the block is in L1 cache. Block boundaries depend only
//    on n and the per-block sums are folded in block order, so the result
//    is bitwise reproducible.
// It is still the largest layer of a cold prepare: on WRelated 192×256
// (r = 20) about two thirds of it, the rest being the two m·n·r GEMMs of
// each B/L alternation (see src/core/README.md for the layer table).

#ifndef LRM_OPT_QUADRATIC_APG_H_
#define LRM_OPT_QUADRATIC_APG_H_

#include <vector>

#include "base/status_or.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace lrm::opt {

/// \brief Options for QuadraticApg.
struct QuadraticApgOptions {
  int max_iterations = 100;
  /// Stop when ‖X_{t+1} − X_t‖_F ≤ tolerance·max(1, ‖X_t‖_F).
  double tolerance = 1e-8;
  /// Power-iteration steps for λmax(H).
  int power_iterations = 30;
};

/// \brief Scratch buffers for QuadraticApg. Pass the same instance to
/// successive solves (the ALM inner loop issues thousands) so solves after
/// the first of a shape do not allocate; contents are overwritten by every
/// call and are meaningless between calls.
struct QuadraticApgWorkspace {
  /// The second iterate buffer (r×n); the caller's X is the first.
  linalg::Matrix x_prev;
  /// H packed into zero-padded panels of the block product's register tile.
  std::vector<double> h_packed;
  /// One column block each (r×64, padded rows×64): the momentum point and
  /// the step.
  std::vector<double> s_block, y_block;
  /// Power-iteration vectors for λmax(H).
  linalg::Vector power_v, power_next, power_hv;
};

/// \brief Result of a QuadraticApg run.
struct QuadraticApgResult {
  int iterations = 0;
  bool converged = false;
  /// λmax(H) estimate used as the step size.
  double lipschitz = 0.0;
  /// f(X) = ½<X,HX> − <T,X> at the returned X.
  double objective = 0.0;
  /// ½·Σ|X∘HX| + Σ|T∘X|: the size of the terms f(X) sums, which its
  /// rounding error scales with.
  double objective_magnitude = 0.0;
};

/// \brief Minimizes ½<X,HX> − <T,X> over {‖X·ⱼ‖₁ ≤ radius ∀j}, starting from
/// *x (projected on entry) and writing the solution back into *x.
/// radius = +∞ solves the unconstrained problem. H must be symmetric PSD
/// with rows(H) == rows(T), and *x must have T's shape. `workspace` is
/// optional scratch; with a reused one the call does not allocate.
StatusOr<QuadraticApgResult> QuadraticApg(
    const linalg::Matrix& h, const linalg::Matrix& t, double radius,
    linalg::Matrix* x, const QuadraticApgOptions& options = {},
    QuadraticApgWorkspace* workspace = nullptr);

}  // namespace lrm::opt

#endif  // LRM_OPT_QUADRATIC_APG_H_
