#include "core/alm_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "base/logging.h"
#include "base/string_util.h"
#include "linalg/cholesky.h"
#include "linalg/matrix_view.h"
#include "obs/stage_timer.h"

namespace lrm::core {

using linalg::Index;
using linalg::Matrix;

namespace {

double InnerProduct(const Matrix& a, const Matrix& b) {
  double result = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  const Index n = a.size();
  for (Index i = 0; i < n; ++i) result += pa[i] * pb[i];
  return result;
}

// ws.residual = W − B·L without materializing the product.
void ResidualInto(const Matrix& w, const Matrix& b, const Matrix& l,
                  Matrix* residual) {
  *residual = w;
  linalg::GemmInto(-1.0, b, false, l, false, 1.0, residual);
}

// The constant part <π,W> + (β/2)‖W‖² of the inner objective J, with the
// sum of its terms' magnitudes.
struct ObjectiveTerm {
  double value = 0.0;
  double magnitude = 0.0;
};

ObjectiveTerm ObjectiveConstant(const Matrix& w, const Matrix& pi,
                                double beta) {
  double cross = 0.0, cross_magnitude = 0.0;
  const double* pw = w.data();
  const double* pp = pi.data();
  const Index n = w.size();
  for (Index i = 0; i < n; ++i) {
    const double term = pp[i] * pw[i];
    cross += term;
    cross_magnitude += std::abs(term);
  }
  const double quadratic = 0.5 * beta * linalg::SquaredFrobeniusNorm(w);
  return {cross + quadratic, cross_magnitude + quadratic};
}

// First-order rounding bound of the expanded J. Every entry of
// T = Bᵀ(βW + π), H = βBᵀB and H·L is an m- or r-term dot product, so each
// term J sums carries a relative error of at most about (m + r)·ε (Higham,
// "Accuracy and Stability of Numerical Algorithms", §3.1); `magnitude` is
// the sum of the terms' absolute values.
double ExpandedObjectiveRoundingBound(Index m, Index r, double magnitude) {
  return static_cast<double>(m + r + 2) *
         std::numeric_limits<double>::epsilon() * magnitude;
}

// Synthesizes a multiplier for a seed that carries no dual state: the
// minimum-norm π with π·Lᵀ = B, i.e. π = B·(LLᵀ + δI)⁻¹·L. At a feasible
// seed (W ≈ BL) this makes the closed-form B update stationary —
// B_new = (βWLᵀ + πLᵀ)(βLLᵀ + I)⁻¹ ≈ (βBLLᵀ + B)(βLLᵀ + I)⁻¹ = B — so the
// first iterations polish the seed instead of collapsing it the way π = 0
// would (the ridge shrinks B until β catches up). Returns false on a
// numerically degenerate L; the caller falls back to π = 0.
bool SynthesizeMultiplier(const Matrix& b, const Matrix& l, Matrix* pi) {
  Matrix gram = linalg::GramAAt(l);  // LLᵀ (r×r)
  double trace = 0.0;
  for (Index d = 0; d < gram.rows(); ++d) trace += gram(d, d);
  const double ridge =
      1e-10 * std::max(1.0, trace / static_cast<double>(
                                       std::max<Index>(gram.rows(), 1)));
  for (Index d = 0; d < gram.rows(); ++d) gram(d, d) += ridge;
  StatusOr<Matrix> x = linalg::SolveSpd(gram, l);  // (LLᵀ+δI)⁻¹L (r×n)
  if (!x.ok()) return false;
  *pi = b * *x;
  return true;
}

}  // namespace

Status ValidateDecompositionOptions(const DecompositionOptions& options,
                                    Index m, Index n) {
  if (options.gamma < 0.0) {
    return Status::InvalidArgument(
        "DecompositionOptions: gamma must be >= 0");
  }
  // r may exceed min(m, n) — the paper's §1 example itself uses r = n > m,
  // and noise-on-data is the r = n special case — but rows of L beyond a
  // basis of R^n buy nothing the L1 budget split cannot, so r > max(m, n)
  // is a caller error, not a strategy.
  if (options.rank < 0 || options.rank > std::max(m, n)) {
    return Status::InvalidArgument(StrFormat(
        "DecompositionOptions: rank %td outside [0, max(m, n) = %td] "
        "(0 selects the automatic r = ceil(1.2 * rank(W)))",
        options.rank, std::max(m, n)));
  }
  if (options.beta_initial <= 0.0 || options.beta_growth <= 1.0) {
    return Status::InvalidArgument(
        "DecompositionOptions: beta_initial must be > 0 and beta_growth "
        "> 1");
  }
  if (options.beta_max < options.beta_initial) {
    return Status::InvalidArgument(
        "DecompositionOptions: beta_max must be >= beta_initial");
  }
  if (options.beta_update_every < 1) {
    return Status::InvalidArgument(
        "DecompositionOptions: beta_update_every must be >= 1");
  }
  if (options.stagnation_ratio <= 0.0) {
    return Status::InvalidArgument(
        "DecompositionOptions: stagnation_ratio must be > 0");
  }
  if (options.max_outer_iterations < 1 || options.max_inner_iterations < 1 ||
      options.l_max_iterations < 1) {
    return Status::InvalidArgument(
        "DecompositionOptions: iteration caps (max_outer_iterations, "
        "max_inner_iterations, l_max_iterations) must be >= 1");
  }
  if (options.inner_tolerance < 0.0 || options.l_tolerance < 0.0) {
    return Status::InvalidArgument(
        "DecompositionOptions: tolerances must be >= 0");
  }
  if (options.polish_patience < 1) {
    return Status::InvalidArgument(
        "DecompositionOptions: polish_patience must be >= 1");
  }
  if (options.rank_tolerance <= 0.0) {
    return Status::InvalidArgument(
        "DecompositionOptions: rank_tolerance must be > 0");
  }
  return Status::OK();
}

Status DecompositionSolver::SeedFactors(Matrix b, Matrix l) {
  // WarmInit validates conformance and finiteness and restores feasibility;
  // running it here surfaces bad seeds at the call site instead of at the
  // next Solve().
  LRM_ASSIGN_OR_RETURN(InitFactors init, WarmInit(std::move(b), std::move(l)));
  seed_b_ = std::move(init.b);
  seed_l_ = std::move(init.l);
  has_seed_ = true;
  return Status::OK();
}

void DecompositionSolver::Reset() {
  retained_b_ = Matrix();
  retained_l_ = Matrix();
  retained_pi_ = Matrix();
  retained_beta_ = 0.0;
  has_retained_ = false;
  last_was_warm_ = false;
  ClearSeed();
}

void DecompositionSolver::ClearSeed() {
  seed_b_ = Matrix();
  seed_l_ = Matrix();
  has_seed_ = false;
}

StatusOr<AlmState> DecompositionSolver::InitializeState(const Matrix& w) {
  // Cheapest place to honor a deadline that expired while the request sat
  // in a queue: before the (potentially expensive) SVD initialization.
  LRM_RETURN_IF_ERROR(
      cancel_token_.Check("DecompositionSolver::InitializeState"));
  const Index m = w.rows();
  const Index n = w.cols();
  if (m == 0 || n == 0) {
    return Status::InvalidArgument("DecompositionSolver: empty workload");
  }
  if (!linalg::AllFinite(w)) {
    return Status::InvalidArgument(
        "DecompositionSolver: workload contains NaN or Inf");
  }
  LRM_RETURN_IF_ERROR(ValidateDecompositionOptions(options_, m, n));

  InitFactors init;
  bool continue_dual_state = false;
  if (has_seed_) {
    // Hard seed: the caller asserted these factors fit this workload.
    has_seed_ = false;
    if (seed_b_.rows() != m || seed_l_.cols() != n) {
      const Status status = Status::InvalidArgument(StrFormat(
          "DecompositionSolver: seed factors are %td×%td · %td×%td but the "
          "workload is %td×%td",
          seed_b_.rows(), seed_b_.cols(), seed_l_.rows(), seed_l_.cols(), m,
          n));
      seed_b_ = Matrix();
      seed_l_ = Matrix();
      return status;
    }
    if (seed_b_.cols() >
        static_cast<Index>(
            std::ceil(1.2 * static_cast<double>(std::max(m, n))))) {
      // Same resource guard ValidateDecompositionOptions applies to the
      // rank knob, widened by the automatic-rank headroom so a hint from
      // any legitimate prior solve of a same-shaped workload passes.
      const Status status = Status::InvalidArgument(StrFormat(
          "DecompositionSolver: seed rank %td exceeds the solver's rank "
          "ceiling for a %td×%td workload",
          seed_b_.cols(), m, n));
      seed_b_ = Matrix();
      seed_l_ = Matrix();
      return status;
    }
    LRM_ASSIGN_OR_RETURN(init,
                         WarmInit(std::move(seed_b_), std::move(seed_l_)));
    seed_b_ = Matrix();
    seed_l_ = Matrix();
  } else if (has_retained_ && retained_b_.rows() == m &&
             retained_l_.cols() == n &&
             (options_.rank == 0 || options_.rank == retained_b_.cols())) {
    // Soft seed: reuse the previous solution where it conforms, fall back
    // to a cold start otherwise (a session re-bound to a differently
    // shaped workload must keep working).
    LRM_ASSIGN_OR_RETURN(init, WarmInit(retained_b_, retained_l_));
    continue_dual_state = true;
  } else {
    LRM_ASSIGN_OR_RETURN(init, ColdInit(w, options_));
  }

  AlmState state;
  state.r = init.rank;
  state.warm_started = init.warm;
  state.b = std::move(init.b);
  state.l = std::move(init.l);

  // Failure mode the β schedule guards against: if β starts too small, the
  // first B-update (ridge) collapses B, the constrained L-update then parks
  // L at a vertex of the L1 ball, and at that mutual fixed point the
  // residual R = W − BL satisfies BᵀR = 0 and RLᵀ = 0 — the multiplier π
  // (a scalar multiple of R) becomes invisible to both updates and the
  // iteration stalls forever. Starting at β = O(r) and growing β whenever
  // the residual stagnates keeps the iterate in the feasible basin.
  //
  // Warm starts face the dual failure: restarting a *polished* seed at
  // (π = 0, β = β₀·r) makes the first ridge B-update walk off the seed and
  // replays the whole cold trajectory. A session continuation therefore
  // resumes the retained (π, β); an explicit seed synthesizes the
  // stationary multiplier instead.
  //
  // A retained β that saturated beta_max is NOT resumable: the schedule
  // check would stop every subsequent solve after one outer iteration,
  // permanently. Such a session re-enters through the synthesized-
  // multiplier path — warm factors, fresh penalty schedule.
  if (continue_dual_state && retained_beta_ < options_.beta_max) {
    state.pi = retained_pi_;
    state.beta = retained_beta_;
  } else if (state.warm_started &&
             SynthesizeMultiplier(state.b, state.l, &state.pi)) {
    state.beta = options_.beta_initial *
                 static_cast<double>(std::max<Index>(state.r, 1));
  } else {
    state.pi = Matrix(m, n);  // multiplier π⁽⁰⁾ = 0
    state.beta = options_.beta_initial *
                 static_cast<double>(std::max<Index>(state.r, 1));
  }

  state.fallback_b = state.b;
  state.fallback_l = state.l;
  ResidualInto(w, state.b, state.l, &state.ws.residual);
  state.fallback_residual = linalg::FrobeniusNorm(state.ws.residual);
  if (state.warm_started && state.fallback_residual <= options_.gamma) {
    // A feasible seed is itself a candidate answer: recording it up front
    // guarantees a warm solve never returns anything worse than its seed.
    state.best_b = state.b;
    state.best_l = state.l;
    state.best_scale = linalg::SquaredFrobeniusNorm(state.b);
    state.best_residual = state.fallback_residual;
  }
  return state;
}

Status DecompositionSolver::RunAlternation(const Matrix& w, AlmState* state) {
  const Index r = state->r;
  const double beta = state->beta;
  Matrix& b = state->b;
  Matrix& l = state->l;
  const Matrix& pi = state->pi;
  AlmWorkspace& ws = state->ws;

  // π and β are fixed for the whole call: βW + π feeds both m·n·r GEMMs of
  // every alternation, and J's constant part <π,W> + (β/2)‖W‖² is paid once.
  ws.target = pi;
  ws.target.Axpy(beta, w);  // βW + π
  const ObjectiveTerm constant = ObjectiveConstant(w, pi, beta);

  opt::QuadraticApgOptions q_options;
  q_options.max_iterations = options_.l_max_iterations;
  q_options.tolerance = options_.l_tolerance;

  state->inner_iterations = 0;
  double previous_objective = std::numeric_limits<double>::infinity();
  for (int inner = 0; inner < options_.max_inner_iterations; ++inner) {
    // Cooperative cancellation checkpoint: one atomic load (plus a clock
    // read under a deadline) per B/L alternation, each of which costs
    // multiple GEMMs — an expired request aborts within one alternation.
    LRM_RETURN_IF_ERROR(
        cancel_token_.Check("DecompositionSolver::RunAlternation"));
    // B update (Eq. 9): B = (βW + π)Lᵀ(βLLᵀ + I)⁻¹.
    linalg::GemmInto(1.0, ws.target, false, l, true, 0.0, &ws.rhs);
    linalg::GramAAtInto(l, &ws.gram);  // L·Lᵀ (r×r)
    ws.gram *= beta;
    for (Index d = 0; d < r; ++d) ws.gram(d, d) += 1.0;
    // B·G = RHS with G SPD ⇒ Bᵀ = G⁻¹·RHSᵀ.
    linalg::TransposeInto(ws.rhs, &ws.rhs_t);
    LRM_ASSIGN_OR_RETURN(ws.b_t, linalg::SolveSpd(ws.gram, ws.rhs_t));
    linalg::TransposeInto(ws.b_t, &b);

    // L update (Formula 10) by Nesterov APG with per-column L1
    // projection, in place on L: H = βBᵀB and T = Bᵀ(βW + π).
    linalg::GramAtAInto(b, &ws.h);
    ws.h *= beta;
    linalg::MultiplyAtBInto(b, ws.target, &ws.t_matrix);  // r×n
    LRM_ASSIGN_OR_RETURN(
        const opt::QuadraticApgResult q,
        opt::QuadraticApg(ws.h, ws.t_matrix, 1.0, &l, q_options, &ws.apg));
    ++state->inner_iterations;

    // Subproblem objective J for the inner stopping rule, expanded so the
    // L-step's own f(L) = ½<L,HL> − <T,L> replaces the m×n residual:
    //   J = ½‖B‖² + <π,W> + (β/2)‖W‖² + f(L).
    // The expansion cancels terms of size up to (β/2)‖W‖² against each
    // other; when its rounding bound could reach a tenth of the tolerance
    // (large β), J is taken from the explicit residual instead.
    const double half_b = 0.5 * linalg::SquaredFrobeniusNorm(b);
    double j_value = half_b + constant.value + q.objective;
    const double threshold =
        options_.inner_tolerance * std::max(1.0, std::abs(j_value));
    if (ExpandedObjectiveRoundingBound(
            w.rows(), r,
            half_b + constant.magnitude + q.objective_magnitude) >
        0.1 * threshold) {
      ResidualInto(w, b, l, &ws.residual);
      j_value = half_b + InnerProduct(pi, ws.residual) +
                0.5 * beta * linalg::SquaredFrobeniusNorm(ws.residual);
      ++state->explicit_objective_evaluations;
    }
    state->inner_objective = j_value;
    if (std::abs(previous_objective - j_value) <=
        options_.inner_tolerance * std::max(1.0, std::abs(j_value))) {
      break;
    }
    previous_objective = j_value;
  }
  return Status::OK();
}

DecompositionSolver::OuterAction
DecompositionSolver::RecordIterateAndAdvanceSchedule(const Matrix& w,
                                                     AlmState* state) {
  // -- Outer bookkeeping (Algorithm 1 lines 7–13). --
  AlmWorkspace& ws = state->ws;
  ResidualInto(w, state->b, state->l, &ws.residual);
  const double tau = linalg::FrobeniusNorm(ws.residual);
  ++state->outer_iterations;

  if (tau <= options_.gamma) {
    const double scale = linalg::SquaredFrobeniusNorm(state->b);
    if (scale < state->best_scale * (1.0 - 1e-3)) {
      state->best_scale = scale;
      state->best_residual = tau;
      state->best_b = state->b;
      state->best_l = state->l;
      state->feasible_without_improvement = 0;
    } else if (++state->feasible_without_improvement >=
               options_.polish_patience) {
      return OuterAction::kStop;  // feasible and the objective has plateaued
    }
  } else if (tau < state->fallback_residual) {
    state->fallback_residual = tau;
    state->fallback_b = state->b;
    state->fallback_l = state->l;
  }
  if (state->beta >= options_.beta_max) return OuterAction::kStop;

  if (state->outer_iterations % options_.beta_update_every == 0 ||
      tau > options_.stagnation_ratio * state->previous_tau) {
    state->beta *= options_.beta_growth;
  }
  state->previous_tau = tau;
  state->pi.Axpy(state->beta, ws.residual);
  return OuterAction::kContinue;
}

Decomposition DecompositionSolver::Finalize(AlmState* state) const {
  Decomposition result;
  result.outer_iterations = state->outer_iterations;
  result.warm_started = state->warm_started;

  Matrix b, l;
  if (std::isfinite(state->best_scale)) {
    result.converged = true;
    b = std::move(state->best_b);
    l = std::move(state->best_l);
    result.residual = state->best_residual;
  } else {
    result.converged = false;
    b = std::move(state->fallback_b);
    l = std::move(state->fallback_l);
    result.residual = state->fallback_residual;
  }

  // Lemma 2 renormalization: scale so Δ(B, L) = 1 exactly, which can only
  // shrink tr(BᵀB) when the constraint was slack.
  const double delta = linalg::MaxColumnAbsSum(l);
  if (delta > 0.0 && delta < 1.0) {
    b *= delta;
    l /= delta;
  }

  result.b = std::move(b);
  result.l = std::move(l);
  result.scale = linalg::SquaredFrobeniusNorm(result.b);
  result.sensitivity = linalg::MaxColumnAbsSum(result.l);
  return result;
}

StatusOr<Decomposition> DecompositionSolver::Solve(const Matrix& w) {
  LRM_ASSIGN_OR_RETURN(AlmState state, InitializeState(w));
  last_was_warm_ = state.warm_started;

  // --- Algorithm 1: inexact augmented Lagrangian loop. ---
  for (int outer = 1; outer <= options_.max_outer_iterations; ++outer) {
    LRM_RETURN_IF_ERROR(cancel_token_.Check("DecompositionSolver::Solve"));
    obs::ScopedStageTimer iteration_span(stage_metrics_.iteration_seconds,
                                         stage_metrics_.iterations);
    LRM_RETURN_IF_ERROR(RunAlternation(w, &state));
    if (RecordIterateAndAdvanceSchedule(w, &state) == OuterAction::kStop) {
      break;
    }
  }

  Decomposition result = Finalize(&state);
  retained_b_ = result.b;
  retained_l_ = result.l;
  // Finalize may hand back the best iterate rather than the last one, but
  // both sit in the same basin; the last dual state continues either.
  retained_pi_ = std::move(state.pi);
  retained_beta_ = state.beta;
  has_retained_ = true;
  return result;
}

}  // namespace lrm::core
