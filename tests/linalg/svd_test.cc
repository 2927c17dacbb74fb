#include "linalg/svd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "linalg/qr.h"
#include "linalg/random_matrix.h"
#include "rng/engine.h"
#include "tests/support/matchers.h"

namespace lrm::linalg {
namespace {

Matrix RandomLowRank(rng::Engine& engine, Index m, Index n, Index rank) {
  const Matrix u = RandomGaussianMatrix(engine, m, rank);
  const Matrix v = RandomGaussianMatrix(engine, rank, n);
  return u * v;
}

void ExpectValidThinSvd(const Matrix& a, const SvdResult& svd, double tol) {
  const Index k = svd.singular_values.size();
  ASSERT_EQ(svd.u.cols(), k);
  ASSERT_EQ(svd.v.cols(), k);
  ASSERT_EQ(svd.u.rows(), a.rows());
  ASSERT_EQ(svd.v.rows(), a.cols());
  // Non-increasing, non-negative spectrum.
  for (Index i = 0; i < k; ++i) {
    EXPECT_GE(svd.singular_values[i], 0.0);
    if (i > 0) {
      EXPECT_LE(svd.singular_values[i], svd.singular_values[i - 1] + 1e-12);
    }
  }
  EXPECT_MATRIX_NEAR(svd.Reconstruct(), a, tol);
}

TEST(JacobiSvdTest, RejectsEmpty) {
  EXPECT_EQ(JacobiSvd(Matrix()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(JacobiSvdTest, DiagonalMatrixSpectrumIsKnown) {
  const StatusOr<SvdResult> svd =
      JacobiSvd(Matrix::Diagonal(Vector{3.0, 5.0, 1.0}));
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd->singular_values[0], 5.0, 1e-12);
  EXPECT_NEAR(svd->singular_values[1], 3.0, 1e-12);
  EXPECT_NEAR(svd->singular_values[2], 1.0, 1e-12);
}

TEST(JacobiSvdTest, KnownSingularValues) {
  // A = [[3, 0], [4, 5]]: σ = (√45 ± √5)/... — classic example with
  // σ₁ = 3√5, σ₂ = √5.
  const Matrix a{{3.0, 0.0}, {4.0, 5.0}};
  const StatusOr<SvdResult> svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd->singular_values[0], 3.0 * std::sqrt(5.0), 1e-10);
  EXPECT_NEAR(svd->singular_values[1], std::sqrt(5.0), 1e-10);
}

class SvdPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SvdPropertyTest, JacobiReconstructsWithOrthonormalFactors) {
  const auto [m, n] = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(m * 997 + n));
  const Matrix a = RandomGaussianMatrix(engine, m, n);
  const StatusOr<SvdResult> svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  ExpectValidThinSvd(a, *svd, 1e-9 * std::max(m, n));

  const Index k = svd->singular_values.size();
  EXPECT_MATRIX_NEAR(GramAtA(svd->u), Matrix::Identity(k), 1e-9 * k);
  EXPECT_MATRIX_NEAR(GramAtA(svd->v), Matrix::Identity(k), 1e-9 * k);
}

TEST_P(SvdPropertyTest, GramSvdAgreesWithJacobiOnSpectrum) {
  const auto [m, n] = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(m * 31 + n * 7 + 5));
  const Matrix a = RandomGaussianMatrix(engine, m, n);
  const StatusOr<SvdResult> jacobi = JacobiSvd(a);
  const StatusOr<SvdResult> gram = GramSvd(a);
  ASSERT_TRUE(jacobi.ok());
  ASSERT_TRUE(gram.ok());
  ExpectValidThinSvd(a, *gram, 1e-7 * std::max(m, n));
  const Index k = std::min(jacobi->singular_values.size(),
                           gram->singular_values.size());
  for (Index i = 0; i < k; ++i) {
    EXPECT_NEAR(gram->singular_values[i], jacobi->singular_values[i],
                1e-7 * (1.0 + jacobi->singular_values[0]));
  }
}

TEST_P(SvdPropertyTest, FrobeniusNormEqualsSpectrumNorm) {
  const auto [m, n] = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(m * 11 + n * 3 + 1));
  const Matrix a = RandomGaussianMatrix(engine, m, n);
  const StatusOr<SvdResult> svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  double spectrum_sq = 0.0;
  for (Index i = 0; i < svd->singular_values.size(); ++i) {
    spectrum_sq += svd->singular_values[i] * svd->singular_values[i];
  }
  EXPECT_NEAR(spectrum_sq, SquaredFrobeniusNorm(a),
              1e-8 * (1.0 + SquaredFrobeniusNorm(a)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdPropertyTest,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(3, 3),
                      std::make_tuple(8, 3), std::make_tuple(3, 8),
                      std::make_tuple(20, 20), std::make_tuple(40, 15),
                      std::make_tuple(15, 40)));

TEST(RankTest, ExactRankOfConstructedMatrices) {
  rng::Engine engine(45);
  for (Index rank : {1, 2, 5, 9}) {
    const Matrix a = RandomLowRank(engine, 20, 30, rank);
    const StatusOr<Index> estimated = EstimateRank(a);
    ASSERT_TRUE(estimated.ok());
    EXPECT_EQ(*estimated, rank) << "constructed rank " << rank;
  }
}

TEST(RankTest, FullRankRandomMatrix) {
  rng::Engine engine(46);
  const Matrix a = RandomGaussianMatrix(engine, 12, 25);
  const StatusOr<Index> estimated = EstimateRank(a);
  ASSERT_TRUE(estimated.ok());
  EXPECT_EQ(*estimated, 12);
}

TEST(RankTest, ZeroMatrixHasRankZero) {
  const StatusOr<Index> estimated = EstimateRank(Matrix(4, 6));
  ASSERT_TRUE(estimated.ok());
  EXPECT_EQ(*estimated, 0);
}

class PinvPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PinvPropertyTest, MoorePenroseConditions) {
  const auto [m, n] = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(m * 13 + n * 17));
  const Matrix a = RandomGaussianMatrix(engine, m, n);
  const StatusOr<Matrix> pinv = PseudoInverse(a);
  ASSERT_TRUE(pinv.ok());
  const Matrix& ap = *pinv;
  const double tol = 1e-8 * std::max(m, n);
  // (1) A·A⁺·A = A, (2) A⁺·A·A⁺ = A⁺, (3)(4) both products symmetric.
  EXPECT_MATRIX_NEAR(a * ap * a, a, tol);
  EXPECT_MATRIX_NEAR(ap * a * ap, ap, tol);
  EXPECT_TRUE(IsSymmetric(a * ap, tol));
  EXPECT_TRUE(IsSymmetric(ap * a, tol));
}

INSTANTIATE_TEST_SUITE_P(Shapes, PinvPropertyTest,
                         ::testing::Values(std::make_tuple(4, 4),
                                           std::make_tuple(10, 6),
                                           std::make_tuple(6, 10)));

TEST(PinvTest, RankDeficientMatrix) {
  rng::Engine engine(47);
  const Matrix a = RandomLowRank(engine, 8, 8, 3);
  const StatusOr<Matrix> pinv = PseudoInverse(a);
  ASSERT_TRUE(pinv.ok());
  EXPECT_MATRIX_NEAR(a * (*pinv) * a, a, 1e-7 * FrobeniusNorm(a));
}

// Dense orthogonal-conjugation construction with an exactly known spectrum:
// A = Q₁·diag(σ)·Q₂ᵀ with random orthogonal factors.
Matrix FromSingularValues(rng::Engine& engine, Index m, Index n,
                          const Vector& sigma) {
  const StatusOr<Matrix> q1 =
      OrthonormalizeColumns(RandomGaussianMatrix(engine, m, m));
  const StatusOr<Matrix> q2 =
      OrthonormalizeColumns(RandomGaussianMatrix(engine, n, n));
  LRM_CHECK(q1.ok() && q2.ok());
  Matrix scaled(m, n);
  for (Index j = 0; j < std::min(m, n); ++j) {
    const double s = j < sigma.size() ? sigma[j] : 0.0;
    for (Index i = 0; i < m; ++i) scaled(i, j) = (*q1)(i, j) * s;
  }
  return MultiplyABt(scaled, *q2);
}

TEST(PartialGramSvdTest, TopKAgreesWithGramSvd) {
  rng::Engine engine(51);
  const Matrix a = RandomGaussianMatrix(engine, 210, 200);
  const StatusOr<SvdResult> full = GramSvd(a);
  const StatusOr<SvdResult> part = PartialGramSvd(a, 12);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(part.ok());
  ASSERT_EQ(part->singular_values.size(), 12);
  ASSERT_EQ(part->u.rows(), 210);
  ASSERT_EQ(part->v.rows(), 200);
  for (Index i = 0; i < 12; ++i) {
    EXPECT_NEAR(part->singular_values[i], full->singular_values[i],
                1e-7 * (1.0 + full->singular_values[0]))
        << "singular value " << i;
  }
  EXPECT_MATRIX_NEAR(GramAtA(part->u), Matrix::Identity(12), 1e-8 * 200);
  EXPECT_MATRIX_NEAR(GramAtA(part->v), Matrix::Identity(12), 1e-8 * 200);
}

TEST(PartialGramSvdTest, LowRankReconstructsFromTopK) {
  rng::Engine engine(52);
  const Matrix a = RandomLowRank(engine, 200, 220, 9);
  const StatusOr<SvdResult> part = PartialGramSvd(a, 9);
  ASSERT_TRUE(part.ok());
  EXPECT_MATRIX_NEAR(part->Reconstruct(), a, 1e-6 * FrobeniusNorm(a));
}

TEST(PartialGramSvdTest, RejectsBadArguments) {
  EXPECT_EQ(PartialGramSvd(Matrix(), 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PartialGramSvd(Matrix::Identity(4), 0).status().code(),
            StatusCode::kInvalidArgument);
  Index rank = 0;
  EXPECT_EQ(PartialGramSvdWithRank(Matrix(), 1e-9, 1.2, &rank)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// Graded spectrum straddling the tolerance — the regression lock for the
// relative-tolerance convention (svd.h NumericalRank): on the Gram path a
// requested tolerance below kGramRankTolFloor is clamped to it, and
// tolerances above the floor are honored as given. The same matrix, probed
// at two tolerances, must produce the two different documented counts from
// both EstimateRank and PartialGramSvdWithRank.
TEST(PartialGramSvdTest, WithRankHonorsGradedSpectrumTolerances) {
  rng::Engine engine(53);
  const Index p = 200;
  Vector sigma(6);
  sigma[0] = 1.0;
  sigma[1] = 1e-2;
  sigma[2] = 1e-4;
  sigma[3] = 1e-6;
  sigma[4] = 1e-8;  // below the 1e-7 Gram floor: never countable at size
  sigma[5] = 1e-10;
  const Matrix a = FromSingularValues(engine, p, p + 16, sigma);

  // rel_tol below the floor clamps to 1e-7: counts {1, 1e-2, 1e-4, 1e-6}.
  Index rank = 0;
  const StatusOr<SvdResult> fine =
      PartialGramSvdWithRank(a, 1e-9, 1.2, &rank);
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(rank, 4);
  ASSERT_EQ(fine->singular_values.size(), 5);  // ⌈1.2·4⌉
  EXPECT_NEAR(fine->singular_values[0], 1.0, 1e-7);
  EXPECT_NEAR(fine->singular_values[3], 1e-6, 1e-9);

  // rel_tol above the floor is honored raw: counts {1, 1e-2, 1e-4}.
  const StatusOr<SvdResult> coarse =
      PartialGramSvdWithRank(a, 1e-5, 1.2, &rank);
  ASSERT_TRUE(coarse.ok());
  EXPECT_EQ(rank, 3);
  EXPECT_EQ(coarse->singular_values.size(), 4);

  // EstimateRank follows the same convention on the same matrix.
  const StatusOr<Index> est_fine = EstimateRank(a, 1e-9);
  const StatusOr<Index> est_coarse = EstimateRank(a, 1e-5);
  ASSERT_TRUE(est_fine.ok());
  ASSERT_TRUE(est_coarse.ok());
  EXPECT_EQ(*est_fine, 4);
  EXPECT_EQ(*est_coarse, 3);
}

TEST(SvdDispatchTest, LargeMatrixUsesGramPath) {
  rng::Engine engine(48);
  // min(m,n) = 200 > kSvdJacobiDispatchLimit; exercises the GramSvd
  // dispatch, whose noise floor EstimateRank accounts for.
  static_assert(200 > kSvdJacobiDispatchLimit);
  const Matrix a = RandomLowRank(engine, 200, 210, 10);
  const StatusOr<Index> rank = EstimateRank(a);
  ASSERT_TRUE(rank.ok());
  EXPECT_EQ(*rank, 10);
}

}  // namespace
}  // namespace lrm::linalg
