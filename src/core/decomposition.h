// Workload matrix decomposition — the heart of the Low-Rank Mechanism
// (paper §4–§5).
//
// Finds B (m×r) and L (r×n) solving the relaxed program (Formula 8):
//
//     min  ½·tr(BᵀB)   s.t.  ‖W − B·L‖_F ≤ γ,   ‖L·ⱼ‖₁ ≤ 1 ∀j
//
// via the inexact Augmented Lagrangian Method of Algorithm 1: the linear
// constraint is dualized with multiplier π and penalty β, and each
// subproblem
//
//     J(B, L) = ½ tr(BᵀB) + <π, W − BL> + β/2 ‖W − BL‖²_F
//
// is approximately minimized by alternating
//   * a closed-form B update  B = (βWLᵀ + πLᵀ)(βLLᵀ + I)⁻¹   (Eq. 9), and
//   * a Nesterov accelerated projected-gradient solve for L (Algorithm 2)
//     with per-column L1-ball projection (Formula 11, Duchi et al.).
// β doubles every `beta_update_every` outer iterations and π takes the
// standard ascent step π ← π + β(W − BL).

#ifndef LRM_CORE_DECOMPOSITION_H_
#define LRM_CORE_DECOMPOSITION_H_

#include "base/status_or.h"
#include "linalg/matrix.h"

namespace lrm::core {

/// \brief Tunables of the ALM decomposition (defaults follow the paper).
struct DecompositionOptions {
  /// Number of intermediate queries r (columns of B / rows of L).
  /// 0 selects the paper's default r = ⌈1.2·rank(W)⌉ (§6.1).
  linalg::Index rank = 0;

  /// Frobenius tolerance γ of the relaxed program (Formula 8). The paper
  /// finds accuracy insensitive to γ across 1e-4…10 (Figure 2).
  double gamma = 0.01;

  /// Initial penalty, scaled by r: β⁽⁰⁾ = beta_initial·r. The B-update
  /// shrinks the exact-SVD initialization by the factor β/(β+r) (because
  /// L₀L₀ᵀ ≈ I/r), so the penalty must start at the scale of r or the first
  /// iterations walk away from the feasible initializer into a degenerate
  /// alternating-least-squares basin that no later β can escape (see
  /// alm_solver.cc InitializeState for the orthogonality argument).
  double beta_initial = 1.0;
  /// Multiplicative growth of β (Algorithm 1 doubles).
  double beta_growth = 2.0;
  /// Outer iterations between scheduled β updates (Algorithm 1: every 10).
  int beta_update_every = 10;
  /// Additionally grow β whenever the residual shrank by less than this
  /// factor between outer iterations (stagnation rescue). The default
  /// trades accuracy for speed: on the bench_ablation_optimizer grid
  /// (64×512) it roughly halves the outer iterations against +∞ (rescue
  /// off), at a 9% (WRelated) and 22% (WRange) higher noise error.
  double stagnation_ratio = 0.95;
  /// Terminate once β exceeds this ("β sufficiently large", line 8).
  double beta_max = 1e10;

  /// Cap on outer (ALM) iterations.
  int max_outer_iterations = 200;
  /// B/L alternations per subproblem ("approximately solve", line 4).
  int max_inner_iterations = 8;
  /// Relative change of the subproblem objective that ends the inner loop.
  double inner_tolerance = 1e-6;

  /// Iteration cap of the Nesterov L-subproblem solver.
  int l_max_iterations = 40;
  /// Movement tolerance of the L-subproblem solver.
  double l_tolerance = 1e-9;

  /// Consecutive feasible iterations without a ≥0.1% objective improvement
  /// before the polish phase stops.
  int polish_patience = 6;

  /// Relative singular-value cutoff when estimating rank(W) for the
  /// automatic r.
  double rank_tolerance = 1e-9;
};

/// \brief Result of DecomposeWorkload.
struct Decomposition {
  /// Recombination matrix B (m×r).
  linalg::Matrix b;
  /// Strategy matrix L (r×n) with every column L1-norm ≤ 1.
  linalg::Matrix l;

  /// Query scale Φ(B, L) = Σ Bᵢⱼ² (Definition 1).
  double scale = 0.0;
  /// Query sensitivity Δ(B, L) = maxⱼ Σᵢ |Lᵢⱼ| (Definition 2); ≤ 1.
  double sensitivity = 0.0;
  /// Final constraint residual ‖W − BL‖_F.
  double residual = 0.0;
  /// Outer ALM iterations used.
  int outer_iterations = 0;
  /// True iff the residual met γ (as opposed to hitting the β or iteration
  /// caps).
  bool converged = false;
  /// True iff the solve was seeded from retained/supplied factors instead
  /// of a cold spectrum initialization (see core/alm_solver.h).
  bool warm_started = false;

  /// Lemma 1: expected squared noise error 2·Φ·Δ²/ε² of the mechanism that
  /// publishes B(LD + Lap(Δ/ε)^r). Excludes the structural error of a
  /// non-zero residual (see Theorem 3 helpers in core/theory.h).
  double ExpectedNoiseError(double epsilon) const {
    return 2.0 * scale * sensitivity * sensitivity / (epsilon * epsilon);
  }

  /// Per-query noise variances: entry i is Var[(B·Lap(Δ/ε)^r)_i] =
  /// 2·Δ²·‖row_i(B)‖²/ε² — how the total of ExpectedNoiseError splits
  /// across the m queries (the §1 examples reason per query this way).
  linalg::Vector PerQueryNoiseVariance(double epsilon) const;
};

/// \brief Runs Algorithm 1 on workload matrix `w` — a one-shot (always
/// cold) wrapper over core/alm_solver.h's DecompositionSolver, which is the
/// API to hold on to when solving related workloads or sweeping γ: its
/// retained factors warm-start subsequent solves.
///
/// Returns a feasible decomposition even when the iteration caps are hit
/// (inspect Decomposition::converged / residual); only invalid inputs and
/// numerical breakdown produce a non-OK status.
StatusOr<Decomposition> DecomposeWorkload(
    const linalg::Matrix& w, const DecompositionOptions& options = {});

}  // namespace lrm::core

#endif  // LRM_CORE_DECOMPOSITION_H_
