#include "opt/apg.h"

#include <gtest/gtest.h>

#include "linalg/random_matrix.h"
#include "opt/l1_projection.h"
#include "rng/engine.h"

namespace lrm::opt {
namespace {

using linalg::Index;
using linalg::Matrix;

double InnerProduct(const Matrix& a, const Matrix& b) {
  double result = 0.0;
  for (Index i = 0; i < a.size(); ++i) result += a.data()[i] * b.data()[i];
  return result;
}

TEST(ApgTest, RejectsNullCallbacks) {
  const Matrix x0(2, 2);
  EXPECT_FALSE(AcceleratedProjectedGradient(nullptr, nullptr, nullptr, x0)
                   .ok());
}

TEST(ApgTest, UnconstrainedQuadraticReachesMinimum) {
  // min ½‖X − T‖²_F has the closed-form solution X = T.
  const Matrix target{{1.0, -2.0}, {3.0, 0.5}};
  auto objective = [&target](const Matrix& x) {
    Matrix d = x;
    d -= target;
    return 0.5 * linalg::SquaredFrobeniusNorm(d);
  };
  auto gradient = [&target](const Matrix& x) {
    Matrix d = x;
    d -= target;
    return d;
  };
  auto projection = [](Matrix&) {};

  const StatusOr<ApgResult> result = AcceleratedProjectedGradient(
      objective, gradient, projection, Matrix(2, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_TRUE(ApproxEqual(result->solution, target, 1e-6));
  EXPECT_NEAR(result->final_objective, 0.0, 1e-10);
}

TEST(ApgTest, L1ConstrainedQuadraticMatchesProjection) {
  // min ½‖X − T‖² s.t. ‖X·ⱼ‖₁ ≤ 1: the solution is the column projection
  // of T.
  const Matrix target{{2.0, 0.0}, {0.0, 3.0}};
  auto objective = [&target](const Matrix& x) {
    Matrix d = x;
    d -= target;
    return 0.5 * linalg::SquaredFrobeniusNorm(d);
  };
  auto gradient = [&target](const Matrix& x) {
    Matrix d = x;
    d -= target;
    return d;
  };
  auto projection = [](Matrix& x) { ProjectColumnsOntoL1Ball(x, 1.0); };

  const StatusOr<ApgResult> result = AcceleratedProjectedGradient(
      objective, gradient, projection, Matrix(2, 2));
  ASSERT_TRUE(result.ok());
  Matrix expected = target;
  ProjectColumnsOntoL1Ball(expected, 1.0);
  EXPECT_TRUE(ApproxEqual(result->solution, expected, 1e-6));
}

// The L-subproblem shape from the paper: G(L) = ½<L, H·L> − <T, L> with H
// positive definite, columns constrained to the L1 ball.
class ApgQuadraticFormTest : public ::testing::TestWithParam<int> {};

TEST_P(ApgQuadraticFormTest, SatisfiesVariationalInequality) {
  const int seed = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(seed));
  const Index r = 4, n = 6;
  const Matrix g = linalg::RandomGaussianMatrix(engine, r, r);
  Matrix h = linalg::GramAtA(g);
  for (Index i = 0; i < r; ++i) h(i, i) += 1.0;
  const Matrix t = linalg::RandomGaussianMatrix(engine, r, n);

  auto objective = [&](const Matrix& x) {
    return 0.5 * InnerProduct(x, h * x) - InnerProduct(t, x);
  };
  auto gradient = [&](const Matrix& x) {
    Matrix grad = h * x;
    grad -= t;
    return grad;
  };
  auto projection = [](Matrix& x) { ProjectColumnsOntoL1Ball(x, 1.0); };

  ApgOptions options;
  options.max_iterations = 2000;
  options.tolerance = 1e-12;
  const StatusOr<ApgResult> result = AcceleratedProjectedGradient(
      objective, gradient, projection, Matrix(r, n), options);
  ASSERT_TRUE(result.ok());

  // First-order optimality on a convex set: moving toward any feasible
  // point cannot decrease the objective, i.e. <∇f(x*), y − x*> ≥ 0.
  const Matrix& x_star = result->solution;
  const Matrix grad_star = gradient(x_star);
  for (int trial = 0; trial < 30; ++trial) {
    Matrix y = linalg::RandomGaussianMatrix(engine, r, n);
    ProjectColumnsOntoL1Ball(y, 1.0);
    Matrix direction = y;
    direction -= x_star;
    EXPECT_GE(InnerProduct(grad_star, direction), -1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApgQuadraticFormTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ApgTest, RespectsIterationBudget) {
  auto objective = [](const Matrix& x) {
    return linalg::SquaredFrobeniusNorm(x);
  };
  auto gradient = [](const Matrix& x) {
    Matrix g = x;
    g *= 2.0;
    return g;
  };
  auto projection = [](Matrix&) {};
  ApgOptions options;
  options.max_iterations = 3;
  options.tolerance = 0.0;  // never converge by movement
  const StatusOr<ApgResult> result = AcceleratedProjectedGradient(
      objective, gradient, projection, Matrix(2, 2, 5.0), options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->iterations, 3);
}

}  // namespace
}  // namespace lrm::opt
