#include "core/decomposition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/decomposition_init.h"
#include "linalg/random_matrix.h"
#include "linalg/svd.h"
#include "rng/engine.h"
#include "workload/generators.h"

namespace lrm::core {
namespace {

using linalg::Index;
using linalg::Matrix;

Matrix LowRankMatrix(std::uint64_t seed, Index m, Index n, Index rank) {
  rng::Engine engine(seed);
  return linalg::RandomGaussianMatrix(engine, m, rank) *
         linalg::RandomGaussianMatrix(engine, rank, n);
}

void ExpectFeasible(const Matrix& w, const Decomposition& d,
                    double gamma, double tol = 1e-6) {
  // Sensitivity constraint: every column of L in the unit L1 ball.
  for (Index j = 0; j < d.l.cols(); ++j) {
    EXPECT_LE(linalg::ColumnAbsSum(d.l, j), 1.0 + tol) << "column " << j;
  }
  EXPECT_LE(d.sensitivity, 1.0 + tol);
  // Residual constraint.
  EXPECT_NEAR(linalg::FrobeniusNorm(w - d.b * d.l), d.residual,
              1e-6 * (1.0 + d.residual));
  if (d.converged) {
    EXPECT_LE(d.residual, gamma + tol);
  }
}

TEST(DecompositionTest, RejectsInvalidInputs) {
  EXPECT_FALSE(DecomposeWorkload(Matrix()).ok());
  DecompositionOptions bad_gamma;
  bad_gamma.gamma = -1.0;
  EXPECT_FALSE(DecomposeWorkload(Matrix::Identity(3), bad_gamma).ok());
  DecompositionOptions bad_beta;
  bad_beta.beta_growth = 0.5;
  EXPECT_FALSE(DecomposeWorkload(Matrix::Identity(3), bad_beta).ok());
}

TEST(DecompositionTest, ExactlyFactorsLowRankWorkload) {
  const Matrix w = LowRankMatrix(1, 20, 30, 4);
  DecompositionOptions options;
  options.gamma = 1e-3;
  const StatusOr<Decomposition> d = DecomposeWorkload(w, options);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->converged);
  ExpectFeasible(w, *d, options.gamma);
  EXPECT_LE(d->residual, 1e-3);
}

TEST(DecompositionTest, AutoRankUsesOnePointTwoTimesRank) {
  const Matrix w = LowRankMatrix(2, 16, 24, 5);
  const StatusOr<Decomposition> d = DecomposeWorkload(w);
  ASSERT_TRUE(d.ok());
  // r = ceil(1.2·5) = 6.
  EXPECT_EQ(d->b.cols(), 6);
  EXPECT_EQ(d->l.rows(), 6);
}

TEST(DecompositionTest, ScaleBoundedByLemma3Construction) {
  // Lemma 3's feasible point has tr(BᵀB) = r·Σσ²; the ALM optimum must do
  // at least as well (allowing solver slack).
  const Matrix w = LowRankMatrix(3, 15, 25, 3);
  const StatusOr<linalg::SvdResult> svd = linalg::JacobiSvd(w);
  ASSERT_TRUE(svd.ok());
  DecompositionOptions options;
  options.rank = 3;
  options.gamma = 1e-2;
  const StatusOr<Decomposition> d = DecomposeWorkload(w, options);
  ASSERT_TRUE(d.ok());
  double sum_sq = 0.0;
  for (Index i = 0; i < 3; ++i) {
    sum_sq += svd->singular_values[i] * svd->singular_values[i];
  }
  EXPECT_LE(d->scale * d->sensitivity * d->sensitivity,
            3.0 * sum_sq * 1.05);
}

TEST(DecompositionTest, RankBelowTrueRankCannotConverge) {
  // Figure 3's left side: r < rank(W) leaves an irreducible residual.
  const Matrix w = LowRankMatrix(4, 12, 18, 6);
  DecompositionOptions options;
  options.rank = 3;
  options.gamma = 1e-4;
  options.max_outer_iterations = 60;
  const StatusOr<Decomposition> d = DecomposeWorkload(w, options);
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->converged);
  // Residual at least the Frobenius tail σ₄..σ₆ of the best rank-3 approx.
  const StatusOr<linalg::SvdResult> svd = linalg::JacobiSvd(w);
  ASSERT_TRUE(svd.ok());
  double tail = 0.0;
  for (Index i = 3; i < 6; ++i) {
    tail += svd->singular_values[i] * svd->singular_values[i];
  }
  EXPECT_GE(d->residual, std::sqrt(tail) * 0.99);
}

TEST(DecompositionTest, LargerGammaStopsEarlier) {
  const Matrix w = LowRankMatrix(5, 20, 20, 8);
  DecompositionOptions tight;
  tight.gamma = 1e-4;
  DecompositionOptions loose;
  loose.gamma = 1.0;
  const StatusOr<Decomposition> d_tight = DecomposeWorkload(w, tight);
  const StatusOr<Decomposition> d_loose = DecomposeWorkload(w, loose);
  ASSERT_TRUE(d_tight.ok());
  ASSERT_TRUE(d_loose.ok());
  EXPECT_LE(d_loose->outer_iterations, d_tight->outer_iterations);
  EXPECT_TRUE(d_loose->converged);
}

TEST(DecompositionTest, IdentityWorkloadKeepsUnitSensitivity) {
  const Matrix w = Matrix::Identity(8);
  DecompositionOptions options;
  options.rank = 8;
  options.gamma = 1e-3;
  const StatusOr<Decomposition> d = DecomposeWorkload(w, options);
  ASSERT_TRUE(d.ok());
  ExpectFeasible(w, *d, options.gamma);
  // For W = I with Δ = 1, the optimal noise error is Φ = n (NOD); ALM must
  // land in that ballpark.
  EXPECT_LE(d->ExpectedNoiseError(1.0), 2.0 * 8.0 * 1.3);
}

TEST(DecompositionTest, Lemma2RescalingKeepsProductError) {
  // The invariance the optimization builds on: scaling (B, L) by (α, 1/α)
  // leaves both the product and Φ·Δ² unchanged.
  const Matrix w = LowRankMatrix(6, 10, 14, 3);
  DecompositionOptions options;
  options.rank = 4;
  const StatusOr<Decomposition> d = DecomposeWorkload(w, options);
  ASSERT_TRUE(d.ok());
  const double alpha = 3.7;
  Matrix b2 = d->b;
  b2 *= alpha;
  Matrix l2 = d->l;
  l2 /= alpha;
  EXPECT_TRUE(ApproxEqual(b2 * l2, d->b * d->l, 1e-9));
  const double phi2 = linalg::SquaredFrobeniusNorm(b2);
  const double delta2 = linalg::MaxColumnAbsSum(l2);
  EXPECT_NEAR(phi2 * delta2 * delta2,
              d->scale * d->sensitivity * d->sensitivity,
              1e-6 * d->scale);
}

TEST(DecompositionTest, DeterministicWithPinnedRank) {
  // Pinned r on a small shape: the init is the full Jacobi SVD, and the
  // whole solve is bitwise repeatable.
  const Matrix w = LowRankMatrix(8, 30, 40, 5);
  DecompositionOptions options;
  options.rank = 6;
  const StatusOr<Decomposition> d1 = DecomposeWorkload(w, options);
  const StatusOr<Decomposition> d2 = DecomposeWorkload(w, options);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d1->b.cols(), 6);
  EXPECT_TRUE(ApproxEqual(d1->b, d2->b, 0.0));
  EXPECT_TRUE(ApproxEqual(d1->l, d2->l, 0.0));
}

// Automatic rank at size (min(m, n) > linalg::kSvdJacobiDispatchLimit)
// rides PartialGramSvdWithRank: rank 100 gives r = ⌈1.2·100⌉, the Lemma-3
// factors reproduce W, and repeated inits are bitwise identical.
TEST(DecompositionInitTest, PartialInitAutoRankIsDeterministic) {
  const Index m = 256;
  const Matrix w = LowRankMatrix(17, m, m, 100);
  ASSERT_GT(m, linalg::kSvdJacobiDispatchLimit);
  DecompositionOptions options;

  const StatusOr<InitFactors> first = ColdInit(w, options);
  const StatusOr<InitFactors> second = ColdInit(w, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->rank, 120);  // ⌈1.2·100⌉
  EXPECT_EQ(second->rank, 120);
  EXPECT_TRUE(ApproxEqual(first->b, second->b, 0.0));
  EXPECT_TRUE(ApproxEqual(first->l, second->l, 0.0));
  EXPECT_LE(linalg::FrobeniusNorm(w - first->b * first->l),
            1e-6 * linalg::FrobeniusNorm(w));
}

// The at-size partial Gram SVD: automatic rank must land on
// ⌈1.2·rank(W)⌉ and the Lemma-3 factors must reproduce a workload whose
// rank fits inside them.
TEST(DecompositionInitTest, PartialInitMatchesAutoRank) {
  const Matrix w = LowRankMatrix(19, 200, 220, 12);
  DecompositionOptions options;
  const StatusOr<InitFactors> init = ColdInit(w, options);
  ASSERT_TRUE(init.ok());
  EXPECT_EQ(init->rank, 15);  // ⌈1.2·12⌉
  EXPECT_EQ(init->b.cols(), 15);
  EXPECT_EQ(init->l.rows(), 15);
  EXPECT_LE(linalg::FrobeniusNorm(w - init->b * init->l),
            1e-6 * linalg::FrobeniusNorm(w));
  EXPECT_NEAR(linalg::MaxColumnAbsSum(init->l), 1.0, 1e-12);

  // Caller-pinned rank takes the top-r partial path and stays consistent
  // with the automatic one on the shared prefix.
  DecompositionOptions pinned = options;
  pinned.rank = 15;
  const StatusOr<InitFactors> pinned_init = ColdInit(w, pinned);
  ASSERT_TRUE(pinned_init.ok());
  EXPECT_TRUE(ApproxEqual(init->b, pinned_init->b, 1e-8));
  EXPECT_TRUE(ApproxEqual(init->l, pinned_init->l, 1e-8));
}

TEST(DecompositionTest, ExpectedNoiseErrorFormula) {
  Decomposition d;
  d.scale = 10.0;
  d.sensitivity = 0.5;
  // 2·10·0.25/ε² at ε = 0.5 → 20.
  EXPECT_DOUBLE_EQ(d.ExpectedNoiseError(0.5), 20.0);
}

TEST(DecompositionTest, PerQueryVariancesSumToTotal) {
  const Matrix w = LowRankMatrix(11, 12, 20, 4);
  DecompositionOptions options;
  options.gamma = 0.01;
  const StatusOr<Decomposition> d = DecomposeWorkload(w, options);
  ASSERT_TRUE(d.ok());
  const linalg::Vector per_query = d->PerQueryNoiseVariance(0.5);
  ASSERT_EQ(per_query.size(), 12);
  for (Index i = 0; i < per_query.size(); ++i) {
    EXPECT_GE(per_query[i], 0.0);
  }
  EXPECT_NEAR(linalg::Sum(per_query), d->ExpectedNoiseError(0.5),
              1e-9 * d->ExpectedNoiseError(0.5));
}

TEST(DecompositionTest, PerQueryVarianceMatchesHandComputation) {
  Decomposition d;
  d.b = Matrix{{1.0, 1.0}, {2.0, 0.0}};
  d.l = Matrix(2, 3);
  d.sensitivity = 1.0;
  d.scale = linalg::SquaredFrobeniusNorm(d.b);
  const linalg::Vector v = d.PerQueryNoiseVariance(1.0);
  EXPECT_DOUBLE_EQ(v[0], 4.0);  // 2·(1+1)
  EXPECT_DOUBLE_EQ(v[1], 8.0);  // 2·4
}

TEST(DecompositionTest, ExactInitConvergesAtScale) {
  // Large enough (min dim > linalg::kSvdJacobiDispatchLimit) that the
  // automatic rank comes from the partial Gram path, whose clamped cutoff
  // recovers the true rank; the decomposition must still meet γ.
  const Matrix w = LowRankMatrix(17, 200, 260, 10);
  ASSERT_GT(std::min(w.rows(), w.cols()), linalg::kSvdJacobiDispatchLimit);
  DecompositionOptions options;
  options.gamma = 0.05;
  const StatusOr<Decomposition> d = DecomposeWorkload(w, options);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->converged);
  ExpectFeasible(w, *d, options.gamma, 1e-5);
  EXPECT_EQ(d->b.cols(), 12);  // ⌈1.2·rank⌉
}

TEST(DecompositionTest, SmallShapeAutoRankUsesJacobiSpectrum) {
  // Small problems take the full Jacobi SVD, whose rank estimate is
  // authoritative.
  rng::Engine engine(23);
  const Matrix w = linalg::RandomGaussianMatrix(engine, 32, 32);
  DecompositionOptions options;
  options.gamma = 5.0;
  const StatusOr<Decomposition> d = DecomposeWorkload(w, options);
  ASSERT_TRUE(d.ok());
  ExpectFeasible(w, *d, options.gamma, 1e-5);
  // r = ⌈1.2·32⌉ proves the exact rank estimate ran.
  EXPECT_EQ(d->b.cols(), 39);
}

TEST(DecompositionInitTest, FullRankWorkloadAtScaleGetsFullAutoRank) {
  // Full rank at size: the partial path must count the whole spectrum
  // instead of truncating it.
  rng::Engine engine(29);
  const Matrix w = linalg::RandomGaussianMatrix(engine, 200, 200);
  ASSERT_GT(std::min(w.rows(), w.cols()), linalg::kSvdJacobiDispatchLimit);
  const StatusOr<InitFactors> init = ColdInit(w, DecompositionOptions{});
  ASSERT_TRUE(init.ok());
  EXPECT_EQ(init->rank, 240);  // ⌈1.2·200⌉
  EXPECT_EQ(init->l.rows(), 240);
  for (Index j = 0; j < init->l.cols(); ++j) {
    EXPECT_LE(linalg::ColumnAbsSum(init->l, j), 1.0 + 1e-12);
  }
}

TEST(DecompositionTest, WorksOnGeneratedWorkloads) {
  for (auto kind : {workload::WorkloadKind::kWDiscrete,
                    workload::WorkloadKind::kWRange,
                    workload::WorkloadKind::kWRelated}) {
    const StatusOr<workload::Workload> w =
        workload::GenerateWorkload(kind, 16, 24, 4, 9);
    ASSERT_TRUE(w.ok());
    DecompositionOptions options;
    options.gamma = 0.1;
    const StatusOr<Decomposition> d =
        DecomposeWorkload(w->matrix(), options);
    ASSERT_TRUE(d.ok()) << workload::WorkloadKindName(kind);
    ExpectFeasible(w->matrix(), *d, options.gamma, 1e-5);
  }
}

}  // namespace
}  // namespace lrm::core
