// The stateful ALM decomposition solver behind DecomposeWorkload.
//
// Algorithm 1 of the paper, factored into separately testable phases that
// operate on an explicit AlmState:
//
//   InitializeState                  — warm/cold seed selection, π = 0,
//                                      β = β₀·r, residual bookkeeping
//   RunAlternation                   — the inner B/L alternation ("approx-
//                                      imately solve the subproblem")
//   RecordIterateAndAdvanceSchedule  — outer bookkeeping: best-feasible /
//                                      fallback tracking (the polish
//                                      phase), the β growth schedule and
//                                      the π ascent step
//   Finalize                         — pick best/fallback, Lemma 2
//                                      renormalization, scale/sensitivity
//
// Solve() strings the phases together and — the point of the class —
// RETAINS the winning factors: the next Solve() on a same-shaped workload
// (a new γ, a perturbed W, the next sweep cell) warm-starts from them
// instead of paying a cold SVD initialization. DecomposeWorkload in
// decomposition.h remains the one-shot wrapper over a throwaway solver.

#ifndef LRM_CORE_ALM_SOLVER_H_
#define LRM_CORE_ALM_SOLVER_H_

#include <limits>
#include <utility>

#include "base/cancel.h"
#include "base/status_or.h"
#include "core/decomposition.h"
#include "core/decomposition_init.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "opt/quadratic_apg.h"

namespace lrm::core {

/// \brief Optional stage-tracing sinks for the solver (obs tier). Null
/// members disable the corresponding site; the struct itself is cheap to
/// copy and holds no ownership — the metrics must outlive the solver's
/// solves (the service keeps them in its MetricRegistry).
struct SolverStageMetrics {
  /// Wall-clock of one outer ALM iteration (alternation + bookkeeping).
  obs::Histogram* iteration_seconds = nullptr;
  /// Outer ALM iterations started, across all solves.
  obs::Counter* iterations = nullptr;
};

/// \brief Checks every DecompositionOptions knob against the workload shape
/// before the solver touches it: negative γ, a rank target outside
/// [0, max(m, n)], non-positive iteration caps or β schedule parameters all
/// return InvalidArgument instead of looping (or dividing) their way into
/// undefined behavior. The rank cap is max(m, n), not min: the paper's §1
/// example uses r = n > m, and noise-on-data is the r = n special case —
/// but L rows beyond a basis of R^n are pure redundancy.
Status ValidateDecompositionOptions(const DecompositionOptions& options,
                                    linalg::Index m, linalg::Index n);

/// \brief Scratch for every temporary the ALM loop touches, allocated once
/// per solver and reused across solves. The loop body writes each buffer
/// through the `*Into` kernels (linalg/matrix_view.h) and the L-solver
/// works in place on L, so iterations after the first are allocation-free
/// apart from the SPD solve's result.
struct AlmWorkspace {
  linalg::Matrix rhs;       // (βW + π)Lᵀ               (m×r)
  linalg::Matrix rhs_t;     // rhsᵀ                     (r×m)
  linalg::Matrix gram;      // βLLᵀ + I                 (r×r)
  linalg::Matrix b_t;       // Bᵀ from the SPD solve    (r×m)
  linalg::Matrix h;         // βBᵀB                     (r×r)
  linalg::Matrix target;    // βW + π                   (m×n)
  linalg::Matrix t_matrix;  // Bᵀ·target                (r×n)
  linalg::Matrix residual;  // W − BL                   (m×n)
  opt::QuadraticApgWorkspace apg;
};

/// \brief The complete state of one ALM solve: the iterate, the multiplier
/// and penalty, the polish-phase bookkeeping and the workspace. Owned by
/// the caller so the phases are individually drivable (and so a session can
/// inspect progress between phases).
struct AlmState {
  /// Current iterate (B is m×r, L is r×n).
  linalg::Matrix b, l;
  /// Lagrange multiplier π (m×n).
  linalg::Matrix pi;
  /// Current penalty β.
  double beta = 0.0;
  /// Number of intermediate queries r.
  linalg::Index r = 0;
  /// Whether the seed came from retained/supplied factors.
  bool warm_started = false;

  /// Best feasible iterate (τ ≤ γ) by scale — the relaxed program's true
  /// objective — plus the minimum-residual iterate as a fallback.
  linalg::Matrix best_b, best_l;
  double best_scale = std::numeric_limits<double>::infinity();
  double best_residual = std::numeric_limits<double>::infinity();
  linalg::Matrix fallback_b, fallback_l;
  double fallback_residual = std::numeric_limits<double>::infinity();

  /// β/π schedule and polish-phase counters.
  double previous_tau = std::numeric_limits<double>::infinity();
  int feasible_without_improvement = 0;
  int outer_iterations = 0;

  /// Inner stopping rule: B/L alternations the last RunAlternation ran, the
  /// subproblem objective J it stopped at, and how many J evaluations of the
  /// solve needed the explicit residual (see RunAlternation).
  int inner_iterations = 0;
  double inner_objective = 0.0;
  int explicit_objective_evaluations = 0;

  AlmWorkspace ws;
};

/// \brief Warm-startable ALM solver for the relaxed program (Formula 8).
///
/// Thread-compatible: one solver per thread (it owns per-solve scratch).
class DecompositionSolver {
 public:
  DecompositionSolver() = default;
  explicit DecompositionSolver(DecompositionOptions options)
      : options_(options) {}

  const DecompositionOptions& options() const { return options_; }

  /// Replaces the options. Retained factors survive: changing γ (or the
  /// iteration budget) between solves is exactly the sweep use case warm
  /// starts exist for. Changing `rank` to a value other than the retained
  /// r forces the next solve cold.
  void set_options(const DecompositionOptions& options) {
    options_ = options;
  }

  /// Runs Algorithm 1 on `w`. Seeds from, in order of preference: factors
  /// supplied via SeedFactors() (shape mismatch with `w` is an error),
  /// factors retained from the previous successful solve when they conform
  /// to `w` and to options().rank (silently falling back to a cold start
  /// otherwise), or a cold spectrum initialization.
  ///
  /// Session warm starts resume the full ALM state — factors AND the dual
  /// state (π, β) — so re-solving a converged problem is an exact
  /// continuation that plateaus within polish_patience outer iterations
  /// instead of replaying the cold trajectory. Explicit seeds carry no dual
  /// state; the multiplier is synthesized from the B-update stationarity
  /// condition π·Lᵀ ≈ B (one r×r SPD solve), which pins the seed in place
  /// the same way.
  StatusOr<Decomposition> Solve(const linalg::Matrix& w);

  /// Seeds the NEXT Solve() with caller-supplied factors (consumed by that
  /// solve). B must be m×r and L r×n for the workload passed to Solve();
  /// the mismatch is diagnosed there. Returns InvalidArgument here when
  /// b.cols() != l.rows() or the factors are empty/non-finite.
  Status SeedFactors(linalg::Matrix b, linalg::Matrix l);

  /// True once a successful solve has left factors to warm-start from.
  bool has_retained_factors() const { return has_retained_; }

  /// Drops retained factors and any pending seed: the next solve is cold.
  void Reset();

  /// Drops only a pending SeedFactors() seed, keeping retained factors.
  void ClearSeed();

  /// Arms cooperative cancellation for subsequent solves: the token is
  /// polled at initialization and between ALM iterations (outer and
  /// inner), so a Solve() whose token expires aborts within one iteration
  /// with the token's typed kDeadlineExceeded / kCancelled status.
  /// Retained factors from earlier successful solves survive the abort; an
  /// aborted solve retains nothing. A default-constructed token (the
  /// default) disables cancellation; callers serving multiple requests
  /// through one solver must re-arm (or clear) per request, since the
  /// token persists across solves.
  void set_cancel_token(CancelToken token) {
    cancel_token_ = std::move(token);
  }
  const CancelToken& cancel_token() const { return cancel_token_; }

  /// Arms per-iteration stage tracing for subsequent Solve() calls: each
  /// outer ALM iteration is timed into `metrics.iteration_seconds` and
  /// counted in `metrics.iterations`. Default (all-null) disables tracing;
  /// the referenced metrics must outlive the solver's solves.
  void set_stage_metrics(const SolverStageMetrics& metrics) {
    stage_metrics_ = metrics;
  }
  const SolverStageMetrics& stage_metrics() const { return stage_metrics_; }

  /// Whether the most recent Solve() warm-started.
  bool last_was_warm() const { return last_was_warm_; }

  // --- Solver phases. Solve() is the normal entry point; the phases are
  // public so tests (and future incremental-update drivers) can run them
  // individually. A manual phase loop reproduces Solve() except for factor
  // retention, which only Solve() performs. ---

  /// Builds the initial state for `w`: applies the same warm/cold seed
  /// selection as Solve() (consuming any pending SeedFactors), zeroes π,
  /// sets β = beta_initial·r and primes the residual bookkeeping.
  StatusOr<AlmState> InitializeState(const linalg::Matrix& w);

  /// One inner pass: alternates the closed-form B update (Eq. 9) and the
  /// Nesterov-APG L update (Formula 10) until the subproblem objective J
  /// stalls or max_inner_iterations is hit. βW + π is formed once per call
  /// and each alternation runs two m·n·r GEMMs, (βW + π)Lᵀ and
  /// Bᵀ(βW + π). J comes from its expansion
  /// ½‖B‖² + <π,W> + (β/2)‖W‖² + ½<L,HL> − <T,L>, whose last two terms the
  /// L-step returns; only when that form's rounding bound exceeds a tenth
  /// of the stopping tolerance (at large β) is J taken from the explicit
  /// residual W − BL, counted in AlmState::explicit_objective_evaluations.
  Status RunAlternation(const linalg::Matrix& w, AlmState* state);

  enum class OuterAction {
    kContinue,  // schedule advanced; run another alternation
    kStop,      // feasible plateau or β cap reached; finalize
  };

  /// Outer bookkeeping (Algorithm 1 lines 7–13): measures τ = ‖W − BL‖_F,
  /// updates the best-feasible/fallback iterates and the polish patience
  /// counter, grows β on schedule or stagnation, and takes the π ascent
  /// step.
  OuterAction RecordIterateAndAdvanceSchedule(const linalg::Matrix& w,
                                              AlmState* state);

  /// Extracts the winning iterate (best feasible, else minimum residual),
  /// applies the Lemma 2 renormalization and fills scale/sensitivity.
  /// `state` is consumed.
  Decomposition Finalize(AlmState* state) const;

 private:
  DecompositionOptions options_;

  // Factors retained from the last successful Solve() (soft seed), plus
  // the dual state of the iterate they came from so a session warm start
  // continues the ALM trajectory instead of restarting it.
  linalg::Matrix retained_b_, retained_l_;
  linalg::Matrix retained_pi_;
  double retained_beta_ = 0.0;
  bool has_retained_ = false;

  // One-shot caller-supplied seed (hard seed; mismatch is an error).
  linalg::Matrix seed_b_, seed_l_;
  bool has_seed_ = false;

  CancelToken cancel_token_;
  SolverStageMetrics stage_metrics_;

  bool last_was_warm_ = false;
};

}  // namespace lrm::core

#endif  // LRM_CORE_ALM_SOLVER_H_
