// The inner stopping rule of DecompositionSolver::RunAlternation: J is
// evaluated from its expansion ½‖B‖² + <π,W> + (β/2)‖W‖² + ½<L,HL> − <T,L>
// instead of the m×n residual, falling back to the residual when the
// expansion's rounding bound is too loose. These tests pin that the
// expansion agrees with the explicit J and leaves every stopping decision
// where the explicit J puts it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/alm_solver.h"
#include "linalg/cholesky.h"
#include "linalg/matrix_view.h"
#include "opt/quadratic_apg.h"
#include "workload/generators.h"

namespace lrm::core {
namespace {

using linalg::Index;
using linalg::Matrix;

Matrix WRelated(std::uint64_t seed) {
  return workload::GenerateWRelated(192, 256, 16, seed)->matrix();
}

Matrix WRange(std::uint64_t seed) {
  return workload::GenerateWRange(40, 80, seed)->matrix();
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

// J(B, L) = ½‖B‖² + <π, W − BL> + (β/2)‖W − BL‖², from the residual.
double ExplicitObjective(const Matrix& w, const AlmState& state) {
  Matrix residual = w;
  linalg::GemmInto(-1.0, state.b, false, state.l, false, 1.0, &residual);
  double cross = 0.0;
  for (Index i = 0; i < residual.size(); ++i) {
    cross += state.pi.data()[i] * residual.data()[i];
  }
  return 0.5 * linalg::SquaredFrobeniusNorm(state.b) + cross +
         0.5 * state.beta * linalg::SquaredFrobeniusNorm(residual);
}

// RunAlternation's inner loop with J always taken from the explicit
// residual: the same B and L steps, so the iterates match bit for bit as
// long as the stopping decisions do. Returns the alternations run.
int ExplicitObjectiveReplica(const Matrix& w,
                             const DecompositionOptions& options,
                             AlmState* state) {
  const double beta = state->beta;
  Matrix target = state->pi;
  target.Axpy(beta, w);
  opt::QuadraticApgOptions q_options;
  q_options.max_iterations = options.l_max_iterations;
  q_options.tolerance = options.l_tolerance;
  opt::QuadraticApgWorkspace apg;
  Matrix rhs, gram, rhs_t, h, t;
  double previous = std::numeric_limits<double>::infinity();
  int inner = 0;
  while (inner < options.max_inner_iterations) {
    linalg::GemmInto(1.0, target, false, state->l, true, 0.0, &rhs);
    linalg::GramAAtInto(state->l, &gram);
    gram *= beta;
    for (Index d = 0; d < state->r; ++d) gram(d, d) += 1.0;
    linalg::TransposeInto(rhs, &rhs_t);
    const Matrix b_t = linalg::SolveSpd(gram, rhs_t).value();
    linalg::TransposeInto(b_t, &state->b);
    linalg::GramAtAInto(state->b, &h);
    h *= beta;
    linalg::MultiplyAtBInto(state->b, target, &t);
    EXPECT_TRUE(
        opt::QuadraticApg(h, t, 1.0, &state->l, q_options, &apg).ok());
    ++inner;
    const double j = ExplicitObjective(w, *state);
    if (std::abs(previous - j) <=
        options.inner_tolerance * std::max(1.0, std::abs(j))) {
      break;
    }
    previous = j;
  }
  return inner;
}

// Runs the phase loop on `w`, checking after every alternation that the J
// the solver stopped at is the explicit J to within a tenth of the
// tolerance. Returns the solve's explicit-residual evaluations.
int ExpectObjectiveAgreesThroughSolve(const Matrix& w) {
  DecompositionSolver solver;
  const DecompositionOptions& options = solver.options();
  AlmState state = solver.InitializeState(w).value();
  for (int outer = 1; outer <= options.max_outer_iterations; ++outer) {
    EXPECT_TRUE(solver.RunAlternation(w, &state).ok());
    const double j = ExplicitObjective(w, state);
    EXPECT_NEAR(state.inner_objective, j,
                0.1 * options.inner_tolerance * std::max(1.0, std::abs(j)))
        << "outer " << outer << " beta " << state.beta;
    if (solver.RecordIterateAndAdvanceSchedule(w, &state) ==
        DecompositionSolver::OuterAction::kStop) {
      break;
    }
  }
  return state.explicit_objective_evaluations;
}

TEST(InnerObjectiveTest, ExpandedObjectiveAgreesOnWRelated) {
  // The low-rank regime never needs the residual: β stays moderate.
  EXPECT_EQ(ExpectObjectiveAgreesThroughSolve(WRelated(1)), 0);
}

TEST(InnerObjectiveTest, ObjectiveAgreesOnWRangeThroughLargePenalties) {
  // r > m, and β grows past 1e7 before the solve ends: from β ≈ 1e6 on the
  // bound sends J to the residual (72 of the solve's evaluations when this
  // was written). Whichever form the bound picks must agree with the
  // explicit J.
  EXPECT_GT(ExpectObjectiveAgreesThroughSolve(WRange(1)), 0);
}

TEST(InnerObjectiveTest, InnerIterationCountsMatchExplicitReplica) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Matrix w = WRelated(seed);
    DecompositionSolver solver;
    const DecompositionOptions& options = solver.options();
    AlmState state = solver.InitializeState(w).value();
    for (int outer = 1; outer <= options.max_outer_iterations; ++outer) {
      AlmState replica = state;
      ASSERT_TRUE(solver.RunAlternation(w, &state).ok());
      const int replica_inner =
          ExplicitObjectiveReplica(w, options, &replica);
      ASSERT_EQ(state.inner_iterations, replica_inner)
          << "seed " << seed << " outer " << outer;
      ASSERT_TRUE(BitIdentical(state.b, replica.b));
      ASSERT_TRUE(BitIdentical(state.l, replica.l));
      if (solver.RecordIterateAndAdvanceSchedule(w, &state) ==
          DecompositionSolver::OuterAction::kStop) {
        break;
      }
    }
    EXPECT_EQ(state.explicit_objective_evaluations, 0) << "seed " << seed;
    EXPECT_GT(state.outer_iterations, 10) << "seed " << seed;
  }
}

TEST(InnerObjectiveTest, LargePenaltyFallsBackToExplicitResidual) {
  // At β = 1e10 the expansion cancels terms of size (β/2)‖W‖² ≈ 1e13
  // down to a J of order 1e3, so its rounding bound exceeds a tenth of the
  // tolerance and every J must come from the residual.
  const Matrix w = WRange(2);
  DecompositionSolver solver;
  AlmState state = solver.InitializeState(w).value();
  state.beta = 1e10;
  ASSERT_TRUE(solver.RunAlternation(w, &state).ok());
  EXPECT_EQ(state.explicit_objective_evaluations, state.inner_iterations);
  EXPECT_EQ(state.inner_objective, ExplicitObjective(w, state));

  // The same state at the initial β keeps the expansion.
  AlmState moderate = solver.InitializeState(w).value();
  ASSERT_LT(moderate.beta, 1e3);
  ASSERT_TRUE(solver.RunAlternation(w, &moderate).ok());
  EXPECT_EQ(moderate.explicit_objective_evaluations, 0);
}

}  // namespace
}  // namespace lrm::core
