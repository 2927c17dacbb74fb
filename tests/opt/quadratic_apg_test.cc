#include "opt/quadratic_apg.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>

#include "linalg/random_matrix.h"
#include "opt/apg.h"
#include "opt/l1_projection.h"
#include "rng/engine.h"

namespace lrm::opt {
namespace {

using linalg::Index;
using linalg::Matrix;

constexpr double kUnconstrained = std::numeric_limits<double>::infinity();

double InnerProduct(const Matrix& a, const Matrix& b) {
  double result = 0.0;
  for (Index i = 0; i < a.size(); ++i) result += a.data()[i] * b.data()[i];
  return result;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

Matrix RandomSpd(rng::Engine& engine, Index r, double ridge) {
  const Matrix g = linalg::RandomGaussianMatrix(engine, r, r);
  Matrix h = linalg::GramAtA(g);
  for (Index i = 0; i < r; ++i) h(i, i) += ridge;
  return h;
}

// The oracle projection: the sort-based projection, column by column.
void SortProjectColumns(Matrix& x) {
  for (Index j = 0; j < x.cols(); ++j) {
    linalg::Vector column = x.Column(j);
    ProjectOntoL1Ball(column, 1.0);
    x.SetColumn(j, column);
  }
}

TEST(QuadraticApgTest, RejectsBadInputs) {
  const Matrix h = Matrix::Identity(3);
  const Matrix t(3, 5);
  Matrix x(3, 5);
  EXPECT_FALSE(QuadraticApg(h, t, 1.0, nullptr).ok());
  EXPECT_FALSE(QuadraticApg(Matrix(3, 2), t, 1.0, &x).ok());
  Matrix bad_shape(2, 5);
  EXPECT_FALSE(QuadraticApg(h, t, 1.0, &bad_shape).ok());
  EXPECT_FALSE(QuadraticApg(h, t, -1.0, &x).ok());
  EXPECT_FALSE(
      QuadraticApg(h, t, std::numeric_limits<double>::quiet_NaN(), &x).ok());
}

TEST(QuadraticApgTest, UnconstrainedSolvesLinearSystem) {
  // min ½<X,HX> − <T,X> without constraints ⇒ H·X = T.
  rng::Engine engine(1);
  const Matrix h = RandomSpd(engine, 4, 2.0);
  const Matrix t = linalg::RandomGaussianMatrix(engine, 4, 6);
  Matrix x(4, 6);
  const auto result = QuadraticApg(h, t, kUnconstrained, &x,
                                   {.max_iterations = 2000,
                                    .tolerance = 1e-12});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ApproxEqual(h * x, t, 1e-5));
}

TEST(QuadraticApgTest, ZeroHessianPushesToBoundary) {
  // H = 0 makes the objective linear: maximize <T, X> over the ball.
  const Matrix h(2, 2);
  Matrix t(2, 3);
  t(0, 0) = 1.0;  // column 0 wants all mass on row 0
  Matrix x(2, 3);
  const auto result = QuadraticApg(h, t, 1.0, &x);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(x(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(result->objective, -1.0, 1e-9);
}

// (seed, r); n = 77 is not a multiple of the 64-column block.
class QuadraticApgAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QuadraticApgAgreementTest, MatchesGenericApgOnLSubproblemShape) {
  // The fused solver must land on the same objective value as the generic
  // backtracking solver with the sort-based projection for the paper's
  // Formula-10 shape.
  const auto [seed, rank] = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(seed));
  const Index r = rank, n = 77;
  const Matrix h = RandomSpd(engine, r, 0.5);
  const Matrix t = linalg::RandomGaussianMatrix(engine, r, n);
  auto objective = [&](const Matrix& x) {
    return 0.5 * InnerProduct(x, h * x) - InnerProduct(t, x);
  };
  auto gradient = [&](const Matrix& x) {
    Matrix g = h * x;
    g -= t;
    return g;
  };

  Matrix fast(r, n);
  const auto result = QuadraticApg(h, t, 1.0, &fast,
                                   {.max_iterations = 3000,
                                    .tolerance = 1e-13});
  const auto generic = AcceleratedProjectedGradient(
      objective, gradient, SortProjectColumns, Matrix(r, n),
      {.max_iterations = 3000,
       .tolerance = 1e-13});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(generic.ok());
  const double f_fast = objective(fast);
  EXPECT_NEAR(f_fast, generic->final_objective,
              1e-6 * (1.0 + std::abs(f_fast)));
  // The objective the solver reports is f at the X it returned.
  EXPECT_NEAR(result->objective, f_fast, 1e-12 * (1.0 + std::abs(f_fast)));
  EXPECT_GE(result->objective_magnitude, std::abs(result->objective));
}

TEST_P(QuadraticApgAgreementTest, SolutionIsFeasibleAndStationary) {
  const auto [seed, rank] = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(seed) + 100);
  const Index r = rank, n = 77;
  const Matrix h = RandomSpd(engine, r, 0.2);
  const Matrix t = linalg::RandomGaussianMatrix(engine, r, n);
  Matrix x_star(r, n);
  const auto result = QuadraticApg(h, t, 1.0, &x_star,
                                   {.max_iterations = 5000,
                                    .tolerance = 1e-13});
  ASSERT_TRUE(result.ok());
  for (Index j = 0; j < n; ++j) {
    EXPECT_LE(linalg::ColumnAbsSum(x_star, j), 1.0 + 1e-9);
  }
  // Variational inequality at the solution.
  Matrix grad = h * x_star;
  grad -= t;
  for (int trial = 0; trial < 20; ++trial) {
    Matrix y = linalg::RandomGaussianMatrix(engine, r, n);
    SortProjectColumns(y);
    Matrix direction = y;
    direction -= x_star;
    EXPECT_GE(InnerProduct(grad, direction), -1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndRanks, QuadraticApgAgreementTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(5, 20, 48)));

TEST(QuadraticApgTest, LipschitzMatchesLargestEigenvalue) {
  // For diag(1, 9) the top eigenvalue is 9; the solver's estimate must be
  // within the documented 2% safety margin.
  const Matrix h = Matrix::Diagonal(linalg::Vector{1.0, 9.0});
  const Matrix t(2, 2);
  Matrix x(2, 2);
  const auto result = QuadraticApg(h, t, kUnconstrained, &x);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->lipschitz, 9.0 * 1.02, 0.2);
}

TEST(QuadraticApgTest, PowerIterationMatchesAllocatingReference) {
  // The workspace power iteration must give the same bits as the plain
  // Vector-temporary form it replaced, so step sizes (and every trajectory
  // behind them) are unchanged.
  auto reference = [](const Matrix& h, int steps) {
    linalg::Vector v(h.rows(), 1.0);
    for (Index i = 0; i < h.rows(); ++i) {
      v[i] += 1e-3 * static_cast<double>(i % 7);
    }
    double lambda = 0.0;
    for (int it = 0; it < steps; ++it) {
      linalg::Vector next = h * v;
      next /= linalg::Norm2(next);
      lambda = linalg::Dot(next, h * next);
      v = std::move(next);
    }
    return std::max(lambda, 0.0);
  };
  rng::Engine engine(11);
  QuadraticApgWorkspace workspace;
  for (const Index r : {1, 7, 20, 48}) {
    const Matrix h = RandomSpd(engine, r, 0.1);
    const Matrix t = linalg::RandomGaussianMatrix(engine, r, 9);
    Matrix x(r, 9);
    const auto result =
        QuadraticApg(h, t, 1.0, &x, {.max_iterations = 1}, &workspace);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->lipschitz, 1.02 * reference(h, 30)) << "r=" << r;
  }
}

TEST(QuadraticApgTest, ReusedWorkspaceGivesIdenticalBits) {
  // A workspace left over from a solve of another shape must not leak into
  // the next solve: the result is bitwise that of a fresh workspace.
  rng::Engine engine(12);
  const Matrix h = RandomSpd(engine, 20, 0.3);
  const Matrix t = linalg::RandomGaussianMatrix(engine, 20, 150) * 3.0;
  const Matrix initial = linalg::RandomGaussianMatrix(engine, 20, 150);

  Matrix fresh = initial;
  const auto a = QuadraticApg(h, t, 1.0, &fresh, {.max_iterations = 37});
  ASSERT_TRUE(a.ok());

  QuadraticApgWorkspace workspace;
  const Matrix big_h = RandomSpd(engine, 48, 0.3);
  Matrix big(48, 200, 5.0);
  ASSERT_TRUE(QuadraticApg(big_h, linalg::RandomGaussianMatrix(engine, 48, 200),
                           1.0, &big, {}, &workspace)
                  .ok());
  Matrix reused = initial;
  const auto b =
      QuadraticApg(h, t, 1.0, &reused, {.max_iterations = 37}, &workspace);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(BitIdentical(fresh, reused));
  EXPECT_EQ(a->iterations, b->iterations);
  EXPECT_EQ(a->objective, b->objective);
}

TEST(QuadraticApgTest, InitialIterateIsProjected) {
  // One step from a point far outside the ball still returns a feasible X.
  rng::Engine engine(13);
  const Matrix h = RandomSpd(engine, 6, 1.0);
  const Matrix t(6, 70);
  Matrix x = linalg::RandomGaussianMatrix(engine, 6, 70) * 10.0;
  ASSERT_TRUE(QuadraticApg(h, t, 0.5, &x, {.max_iterations = 1}).ok());
  for (Index j = 0; j < x.cols(); ++j) {
    EXPECT_LE(linalg::ColumnAbsSum(x, j), 0.5 + 1e-12);
  }
}

}  // namespace
}  // namespace lrm::opt
