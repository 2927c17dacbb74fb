#include "opt/l1_projection.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "linalg/random_matrix.h"
#include "rng/engine.h"

namespace lrm::opt {
namespace {

using linalg::Index;
using linalg::Matrix;
using linalg::Vector;

// Exhaustive reference: the projection equals soft-thresholding with the
// theta that makes the result's L1 norm hit the radius. Verified by a
// fine-grained scan over theta.
Vector ReferenceProjection(const Vector& v, double radius) {
  if (linalg::Norm1(v) <= radius) return v;
  double lo = 0.0, hi = linalg::NormInf(v);
  for (int iter = 0; iter < 200; ++iter) {
    const double theta = 0.5 * (lo + hi);
    double norm = 0.0;
    for (Index i = 0; i < v.size(); ++i) {
      norm += std::max(std::abs(v[i]) - theta, 0.0);
    }
    if (norm > radius) {
      lo = theta;
    } else {
      hi = theta;
    }
  }
  const double theta = 0.5 * (lo + hi);
  Vector result(v.size());
  for (Index i = 0; i < v.size(); ++i) {
    const double magnitude = std::max(std::abs(v[i]) - theta, 0.0);
    result[i] = std::copysign(magnitude, v[i]);
  }
  return result;
}

TEST(L1ProjectionTest, PointInsideBallUnchanged) {
  Vector v{0.2, -0.3, 0.1};
  const Vector original = v;
  ProjectOntoL1Ball(v, 1.0);
  EXPECT_TRUE(ApproxEqual(v, original, 0.0));
}

TEST(L1ProjectionTest, PointOnBoundaryUnchanged) {
  Vector v{0.5, -0.5};
  const Vector original = v;
  ProjectOntoL1Ball(v, 1.0);
  EXPECT_TRUE(ApproxEqual(v, original, 1e-15));
}

TEST(L1ProjectionTest, KnownProjection) {
  // Projecting (2, 0) onto the unit L1 ball gives (1, 0).
  Vector v{2.0, 0.0};
  ProjectOntoL1Ball(v, 1.0);
  EXPECT_TRUE(ApproxEqual(v, Vector{1.0, 0.0}, 1e-12));
}

TEST(L1ProjectionTest, SymmetricPointShrinksUniformly) {
  // (1, 1) projects to (0.5, 0.5) on the unit ball.
  Vector v{1.0, 1.0};
  ProjectOntoL1Ball(v, 1.0);
  EXPECT_TRUE(ApproxEqual(v, Vector{0.5, 0.5}, 1e-12));
}

TEST(L1ProjectionTest, SignsArePreserved) {
  Vector v{3.0, -4.0, 0.5};
  ProjectOntoL1Ball(v, 2.0);
  EXPECT_GE(v[0], 0.0);
  EXPECT_LE(v[1], 0.0);
  EXPECT_GE(v[2], 0.0);
}

TEST(L1ProjectionTest, ZeroRadiusZeroesVector) {
  Vector v{1.0, -2.0};
  ProjectOntoL1Ball(v, 0.0);
  EXPECT_TRUE(ApproxEqual(v, Vector{0.0, 0.0}, 0.0));
}

TEST(L1ProjectionTest, EmptyVectorIsNoop) {
  Vector v;
  ProjectOntoL1Ball(v, 1.0);
  EXPECT_TRUE(v.empty());
}

class L1ProjectionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(L1ProjectionPropertyTest, ResultIsFeasible) {
  const auto [dim, radius] = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(dim * 1000 + radius * 10));
  for (int trial = 0; trial < 20; ++trial) {
    Vector v = linalg::RandomGaussianVector(engine, dim) * 5.0;
    ProjectOntoL1Ball(v, radius);
    EXPECT_LE(linalg::Norm1(v), radius + 1e-9);
  }
}

TEST_P(L1ProjectionPropertyTest, ProjectionIsIdempotent) {
  const auto [dim, radius] = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(dim * 77 + radius));
  Vector v = linalg::RandomGaussianVector(engine, dim) * 3.0;
  ProjectOntoL1Ball(v, radius);
  Vector again = v;
  ProjectOntoL1Ball(again, radius);
  EXPECT_TRUE(ApproxEqual(again, v, 1e-12));
}

TEST_P(L1ProjectionPropertyTest, MatchesReferenceBisection) {
  const auto [dim, radius] = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(dim * 31 + radius * 7 + 1));
  for (int trial = 0; trial < 10; ++trial) {
    const Vector original = linalg::RandomGaussianVector(engine, dim) * 4.0;
    Vector fast = original;
    ProjectOntoL1Ball(fast, radius);
    const Vector reference = ReferenceProjection(original, radius);
    EXPECT_TRUE(ApproxEqual(fast, reference, 1e-6))
        << "dim=" << dim << " radius=" << radius;
  }
}

TEST_P(L1ProjectionPropertyTest, NoFeasiblePointIsCloser) {
  // Optimality spot-check: random feasible points are never closer to the
  // original than the projection.
  const auto [dim, radius] = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(dim * 13 + radius * 3 + 2));
  const Vector original = linalg::RandomGaussianVector(engine, dim) * 4.0;
  Vector projected = original;
  ProjectOntoL1Ball(projected, radius);
  const double d_star = linalg::SquaredNorm(original - projected);
  for (int trial = 0; trial < 50; ++trial) {
    Vector candidate = linalg::RandomGaussianVector(engine, dim);
    ProjectOntoL1Ball(candidate, radius);  // make it feasible
    EXPECT_GE(linalg::SquaredNorm(original - candidate), d_star - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndRadii, L1ProjectionPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 5, 20, 100),
                       ::testing::Values(0.5, 1.0, 3.0)));

TEST(ProjectColumnsTest, EveryColumnFeasible) {
  rng::Engine engine(99);
  Matrix m = linalg::RandomGaussianMatrix(engine, 10, 8) * 3.0;
  ProjectColumnsOntoL1Ball(m, 1.0);
  for (Index j = 0; j < m.cols(); ++j) {
    EXPECT_LE(linalg::ColumnAbsSum(m, j), 1.0 + 1e-9);
  }
}

TEST(ProjectColumnsTest, MatchesPerVectorProjection) {
  rng::Engine engine(100);
  const Matrix original = linalg::RandomGaussianMatrix(engine, 6, 4) * 2.0;
  Matrix projected = original;
  ProjectColumnsOntoL1Ball(projected, 1.0);
  for (Index j = 0; j < original.cols(); ++j) {
    Vector column = original.Column(j);
    ProjectOntoL1Ball(column, 1.0);
    EXPECT_TRUE(ApproxEqual(projected.Column(j), column, 1e-12));
  }
}

// Block kernel vs the sort-based oracle, column by column, plus the
// kernel's own contract: feasibility, idempotence and the pass bound. All
// three hold to 1e-12·max(1, ‖column‖₁): θ is a difference of sums of the
// column's magnitudes, so its rounding scales with them.
void ExpectMatchesSortOracle(const Matrix& original, double radius) {
  Matrix projected = original;
  const int passes = ProjectColumnsOntoL1Ball(projected, radius);
  EXPECT_LE(passes, original.rows() + 1);
  Matrix again = projected;
  EXPECT_LE(ProjectColumnsOntoL1Ball(again, radius), original.rows() + 1);
  for (Index j = 0; j < original.cols(); ++j) {
    Vector column = original.Column(j);
    const double tolerance = 1e-12 * std::max(1.0, linalg::Norm1(column));
    ProjectOntoL1Ball(column, radius);
    for (Index i = 0; i < original.rows(); ++i) {
      ASSERT_NEAR(projected(i, j), column[i], tolerance)
          << "r=" << original.rows() << " n=" << original.cols()
          << " radius=" << radius << " column " << j << " row " << i;
      ASSERT_NEAR(again(i, j), projected(i, j), tolerance);
    }
    EXPECT_LE(linalg::ColumnAbsSum(projected, j), radius + tolerance);
  }
}

// Columns built to sit where the θ search can go wrong, cycling through
// the kinds by column index (`radius` is the ball they are built for).
Matrix AdversarialColumns(Index r, Index n, double radius) {
  Matrix m(r, n);
  for (Index j = 0; j < n; ++j) {
    const double sign = j % 2 == 0 ? 1.0 : -1.0;
    for (Index i = 0; i < r; ++i) {
      double v = 0.0;
      switch (j % 7) {
        case 0:  // all-equal magnitudes, mixed signs, outside the ball
          v = (i % 2 == 0 ? 1.0 : -1.0) * 2.0 * radius;
          break;
        case 1:  // ties at θ: one large entry and the rest equal to θ
          v = i == 0 ? 3.0 * radius : sign * radius;
          break;
        case 2:  // exactly on the boundary (dyadic entries sum to radius)
          v = radius *
              std::ldexp(1.0, -static_cast<int>(std::min(i + 1, r - 1)));
          if (i + 1 < r) v *= sign;
          break;
        case 3:  // zero column
          v = 0.0;
          break;
        case 4:  // geometric magnitudes: one entry leaves the set per pass
          v = sign * radius * std::ldexp(1.0, static_cast<int>(i % 40));
          break;
        case 5:  // sparse, outside the ball: zeros must stay zero
          v = i % 5 == 0 ? sign * radius : 0.0;
          break;
        default:  // strictly inside the ball
          v = sign * radius / (2.0 * static_cast<double>(r));
          break;
      }
      m(i, j) = v;
    }
  }
  return m;
}

class BlockProjectionOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(BlockProjectionOracleTest, RandomColumnsMatchSortOracle) {
  const auto [rows, cols, radius] = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(rows * 7919 + cols * 31));
  for (const double spread : {0.01, 1.0, 50.0}) {
    ExpectMatchesSortOracle(
        linalg::RandomGaussianMatrix(engine, rows, cols) * spread, radius);
  }
}

TEST_P(BlockProjectionOracleTest, AdversarialColumnsMatchSortOracle) {
  const auto [rows, cols, radius] = GetParam();
  ExpectMatchesSortOracle(AdversarialColumns(rows, cols, radius), radius);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndRadii, BlockProjectionOracleTest,
    ::testing::Combine(::testing::Values(1, 20, 300),
                       ::testing::Values(1, 64, 77, 130),
                       ::testing::Values(0.5, 1.0, 3.0)));

TEST(BlockProjectionTest, ZeroRadiusZeroesEveryColumn) {
  rng::Engine engine(5);
  Matrix m = linalg::RandomGaussianMatrix(engine, 20, 77);
  EXPECT_EQ(ProjectColumnsOntoL1Ball(m, 0.0), 0);
  EXPECT_TRUE(ApproxEqual(m, Matrix(20, 77), 0.0));
}

TEST(BlockProjectionTest, InfiniteRadiusLeavesBitsUntouched) {
  rng::Engine engine(6);
  const Matrix original = linalg::RandomGaussianMatrix(engine, 20, 77) * 9.0;
  Matrix m = original;
  EXPECT_EQ(
      ProjectColumnsOntoL1Ball(m, std::numeric_limits<double>::infinity()),
      0);
  EXPECT_EQ(std::memcmp(m.data(), original.data(), sizeof(double) * m.size()),
            0);
}

TEST(BlockProjectionTest, ColumnsInsideTheBallKeepTheirBits) {
  // Only the norm pass runs, and nothing is rewritten.
  rng::Engine engine(7);
  const Matrix original = linalg::RandomGaussianMatrix(engine, 20, 77) * 1e-3;
  Matrix m = original;
  EXPECT_EQ(ProjectColumnsOntoL1Ball(m, 1.0), 1);
  EXPECT_EQ(std::memcmp(m.data(), original.data(), sizeof(double) * m.size()),
            0);
}

TEST(BlockProjectionTest, GeometricColumnNeedsManyPassesButStaysInBound) {
  // Magnitudes 2^0 … 2^(r−1) against a tiny radius: each Michelot pass
  // drops only the smallest survivors, so the θ loop runs long; it must
  // still stop within rows + 1 passes and agree with the oracle.
  const Index r = 30;
  Matrix m(r, 3);
  for (Index i = 0; i < r; ++i) {
    for (Index j = 0; j < 3; ++j) {
      m(i, j) = std::ldexp(1.0, static_cast<int>(i));
    }
  }
  Matrix projected = m;
  const int passes = ProjectColumnsOntoL1Ball(projected, 1e-3);
  EXPECT_GT(passes, 3);
  EXPECT_LE(passes, r + 1);
  ExpectMatchesSortOracle(m, 1e-3);
}

}  // namespace
}  // namespace lrm::opt
