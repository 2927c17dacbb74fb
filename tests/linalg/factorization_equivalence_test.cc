// Blocked-vs-scalar equivalence suite for the factorization tier. Every
// factorization is run twice through the public API with the dispatch
// forced to each implementation (kernels::SetFactorImpl), and the results
// are compared: directly where the factorization is unique (Cholesky,
// eigenvalues, sign-normalized QR of full-rank inputs) and through the
// defining properties (reconstruction, orthonormality, triangularity)
// where it is not (rank-deficient and ill-conditioned inputs).

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "linalg/cholesky.h"
#include "linalg/eigen_dc.h"
#include "linalg/eigen_sym.h"
#include "linalg/kernels/kernels.h"
#include "linalg/qr.h"
#include "linalg/random_matrix.h"
#include "linalg/svd.h"
#include "rng/engine.h"
#include "tests/support/matchers.h"

namespace lrm::linalg {
namespace {

namespace kernels = lrm::linalg::kernels;

// Forces one factorization implementation for the duration of a scope and
// always restores the environment default.
class ScopedFactorImpl {
 public:
  explicit ScopedFactorImpl(kernels::FactorImpl impl) {
    kernels::SetFactorImpl(impl);
  }
  ~ScopedFactorImpl() { kernels::SetFactorImpl(kernels::FactorImpl::kAuto); }
};

Matrix RandomSymmetric(rng::Engine& engine, Index n) {
  const Matrix g = RandomGaussianMatrix(engine, n, n);
  Matrix a = g + Transpose(g);
  a *= 0.5;
  return a;
}

Matrix RandomSpd(rng::Engine& engine, Index n) {
  const Matrix g = RandomGaussianMatrix(engine, n, n);
  Matrix a = GramAtA(g);
  for (Index i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

// Columns scaled by 10^{-j/4}: spans ~25 orders of magnitude at 100 cols.
Matrix GradedColumns(rng::Engine& engine, Index m, Index n) {
  Matrix a = RandomGaussianMatrix(engine, m, n);
  for (Index j = 0; j < n; ++j) {
    const double scale = std::pow(10.0, -static_cast<double>(j) / 4.0);
    for (Index i = 0; i < m; ++i) a(i, j) *= scale;
  }
  return a;
}

// Verifies the defining QR properties for one implementation's result.
void CheckQrProperties(const Matrix& a, const QrResult& qr,
                       const char* label) {
  SCOPED_TRACE(label);
  const Index m = a.rows(), n = a.cols();
  const Index k = std::min(m, n);
  ASSERT_EQ(qr.q.rows(), m);
  ASSERT_EQ(qr.q.cols(), k);
  ASSERT_EQ(qr.r.rows(), k);
  ASSERT_EQ(qr.r.cols(), n);
  const double scale = std::max(1.0, MaxAbs(a));
  EXPECT_MATRIX_NEAR(qr.q * qr.r, a, 1e-12 * scale * std::max(m, n));
  EXPECT_MATRIX_NEAR(GramAtA(qr.q), Matrix::Identity(k), 1e-12 * m);
  for (Index i = 0; i < k; ++i) {
    for (Index j = 0; j < std::min(i, n); ++j) {
      EXPECT_EQ(qr.r(i, j), 0.0) << "R not triangular at " << i << "," << j;
    }
  }
}

// Flips the signs of both results so every R diagonal is non-negative; for
// full-column-rank inputs the factorization is then unique and the two
// implementations must agree entrywise.
void NormalizeQrSigns(QrResult& qr) {
  for (Index i = 0; i < qr.r.rows(); ++i) {
    if (qr.r(i, i) < 0.0) {
      for (Index j = i; j < qr.r.cols(); ++j) qr.r(i, j) = -qr.r(i, j);
      for (Index r = 0; r < qr.q.rows(); ++r) qr.q(r, i) = -qr.q(r, i);
    }
  }
}

class QrEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QrEquivalenceTest, BlockedMatchesScalarOnRandomInput) {
  const auto [m, n] = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(m * 977 + n));
  const Matrix a = RandomGaussianMatrix(engine, m, n);

  StatusOr<QrResult> scalar_qr = Status::InvalidArgument("unset");
  StatusOr<QrResult> blocked_qr = Status::InvalidArgument("unset");
  {
    ScopedFactorImpl force(kernels::FactorImpl::kReference);
    scalar_qr = HouseholderQr(a);
  }
  {
    ScopedFactorImpl force(kernels::FactorImpl::kBlocked);
    blocked_qr = HouseholderQr(a);
  }
  ASSERT_TRUE(scalar_qr.ok());
  ASSERT_TRUE(blocked_qr.ok());
  CheckQrProperties(a, *scalar_qr, "scalar");
  CheckQrProperties(a, *blocked_qr, "blocked");

  // Gaussian input is full rank almost surely: after fixing the sign
  // convention the two factorizations must agree entry by entry.
  NormalizeQrSigns(*scalar_qr);
  NormalizeQrSigns(*blocked_qr);
  const double tol = 1e-10 * std::max(m, n);
  EXPECT_MATRIX_NEAR(blocked_qr->q, scalar_qr->q, tol);
  EXPECT_MATRIX_NEAR(blocked_qr->r, scalar_qr->r, tol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrEquivalenceTest,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(1, 9),
                      std::make_tuple(9, 1), std::make_tuple(5, 5),
                      std::make_tuple(33, 33), std::make_tuple(64, 48),
                      std::make_tuple(48, 64), std::make_tuple(130, 70),
                      std::make_tuple(70, 130), std::make_tuple(200, 37),
                      std::make_tuple(97, 97)));

TEST(QrEquivalenceTest, RankDeficientInput) {
  // Rank-3 matrix, 80×40: Q·R and orthonormality must hold for both paths
  // even though the factor pair is not unique past the rank.
  rng::Engine engine(4242);
  const Matrix a = RandomGaussianMatrix(engine, 80, 3) *
                   RandomGaussianMatrix(engine, 3, 40);
  for (kernels::FactorImpl impl :
       {kernels::FactorImpl::kReference, kernels::FactorImpl::kBlocked}) {
    ScopedFactorImpl force(impl);
    const StatusOr<QrResult> qr = HouseholderQr(a);
    ASSERT_TRUE(qr.ok());
    CheckQrProperties(a, *qr,
                      impl == kernels::FactorImpl::kBlocked ? "blocked"
                                                            : "scalar");
  }
}

TEST(QrEquivalenceTest, IllConditionedInput) {
  rng::Engine engine(7);
  const Matrix a = GradedColumns(engine, 90, 50);
  for (kernels::FactorImpl impl :
       {kernels::FactorImpl::kReference, kernels::FactorImpl::kBlocked}) {
    ScopedFactorImpl force(impl);
    const StatusOr<QrResult> qr = HouseholderQr(a);
    ASSERT_TRUE(qr.ok());
    CheckQrProperties(a, *qr,
                      impl == kernels::FactorImpl::kBlocked ? "blocked"
                                                            : "scalar");
  }
}

TEST(QrEquivalenceTest, OrthonormalizeColumnsIntoMatchesAndReusesBuffers) {
  rng::Engine engine(99);
  const Matrix a = RandomGaussianMatrix(engine, 150, 40);
  ScopedFactorImpl force(kernels::FactorImpl::kBlocked);

  const StatusOr<Matrix> direct = OrthonormalizeColumns(a);
  ASSERT_TRUE(direct.ok());

  QrWorkspace ws;
  Matrix q;
  ASSERT_TRUE(OrthonormalizeColumnsInto(a, &q, &ws).ok());
  EXPECT_MATRIX_NEAR(q, *direct, 1e-12);

  // Second pass through the same workspace: identical result, and the
  // output may alias the input (orthonormalize in place).
  Matrix in_place = a;
  ASSERT_TRUE(OrthonormalizeColumnsInto(in_place, &in_place, &ws).ok());
  EXPECT_MATRIX_NEAR(in_place, *direct, 1e-12);
}

class CholeskyEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyEquivalenceTest, BlockedMatchesScalar) {
  const Index n = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(n) * 31 + 5);
  const Matrix a = RandomSpd(engine, n);

  StatusOr<Matrix> scalar_l = Status::InvalidArgument("unset");
  StatusOr<Matrix> blocked_l = Status::InvalidArgument("unset");
  {
    ScopedFactorImpl force(kernels::FactorImpl::kReference);
    scalar_l = CholeskyFactor(a);
  }
  {
    ScopedFactorImpl force(kernels::FactorImpl::kBlocked);
    blocked_l = CholeskyFactor(a);
  }
  ASSERT_TRUE(scalar_l.ok());
  ASSERT_TRUE(blocked_l.ok());
  // The Cholesky factor is unique: compare directly.
  const double scale = std::max(1.0, MaxAbs(a));
  EXPECT_MATRIX_NEAR(*blocked_l, *scalar_l, 1e-10 * scale);
  EXPECT_MATRIX_NEAR(MultiplyABt(*blocked_l, *blocked_l), a,
                     1e-11 * scale * n);
  // The strict upper triangle must be exactly zero in both layouts.
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) {
      EXPECT_EQ((*blocked_l)(i, j), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyEquivalenceTest,
                         ::testing::Values(1, 2, 5, 63, 64, 65, 100, 129,
                                           200));

TEST(CholeskyEquivalenceTest, IllConditionedReconstructs) {
  // Gram matrix of graded columns: condition number ~1e12 at this size.
  rng::Engine engine(11);
  Matrix g = GradedColumns(engine, 200, 150);
  Matrix a = GramAtA(g);
  for (Index i = 0; i < a.rows(); ++i) a(i, i) += 1e-10;
  for (kernels::FactorImpl impl :
       {kernels::FactorImpl::kReference, kernels::FactorImpl::kBlocked}) {
    ScopedFactorImpl force(impl);
    const StatusOr<Matrix> l = CholeskyFactor(a);
    ASSERT_TRUE(l.ok());
    EXPECT_MATRIX_NEAR(MultiplyABt(*l, *l), a, 1e-9 * MaxAbs(a));
  }
}

TEST(CholeskyEquivalenceTest, NonPositiveDefiniteFailsInBothPaths) {
  rng::Engine engine(13);
  Matrix a = RandomSymmetric(engine, 160);  // indefinite almost surely
  for (kernels::FactorImpl impl :
       {kernels::FactorImpl::kReference, kernels::FactorImpl::kBlocked}) {
    ScopedFactorImpl force(impl);
    EXPECT_EQ(CholeskyFactor(a).status().code(),
              StatusCode::kNumericalError);
  }
}

TEST(CholeskyEquivalenceTest, BlockedSolveMatchesDirectSubstitution) {
  const Index n = 180, rhs = 70;
  rng::Engine engine(17);
  const Matrix a = RandomSpd(engine, n);
  const Matrix b = RandomGaussianMatrix(engine, n, rhs);
  const StatusOr<Matrix> x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_MATRIX_NEAR(a * (*x), b, 1e-8 * n);
}

class EigenEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EigenEquivalenceTest, BlockedAndDcMatchScalar) {
  const Index n = GetParam();
  rng::Engine engine(static_cast<std::uint64_t>(n) * 131 + 3);
  const Matrix a = RandomSymmetric(engine, n);

  StatusOr<SymmetricEigenResult> scalar_eig = Status::InvalidArgument("unset");
  {
    ScopedFactorImpl force(kernels::FactorImpl::kReference);
    scalar_eig = SymmetricEigen(a);
  }
  ASSERT_TRUE(scalar_eig.ok());

  for (kernels::FactorImpl impl :
       {kernels::FactorImpl::kBlocked, kernels::FactorImpl::kDc}) {
    SCOPED_TRACE(impl == kernels::FactorImpl::kDc ? "dc" : "blocked");
    StatusOr<SymmetricEigenResult> eig = Status::InvalidArgument("unset");
    {
      ScopedFactorImpl force(impl);
      eig = SymmetricEigen(a);
    }
    ASSERT_TRUE(eig.ok());

    // Eigenvalues are unique: compare directly at 1e-10 scale.
    const double scale = std::max(1.0, MaxAbs(a)) * n;
    ASSERT_EQ(eig->eigenvalues.size(), n);
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(eig->eigenvalues[i], scalar_eig->eigenvalues[i],
                  1e-11 * scale)
          << "eigenvalue " << i;
    }
    // Eigenvectors are unique only up to sign (and rotation in repeated
    // eigenspaces): check the defining properties instead.
    EXPECT_MATRIX_NEAR(GramAtA(eig->eigenvectors), Matrix::Identity(n),
                       1e-11 * n);
    Matrix scaled = eig->eigenvectors;
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < n; ++i) scaled(i, j) *= eig->eigenvalues[j];
    }
    EXPECT_MATRIX_NEAR(MultiplyABt(scaled, eig->eigenvectors), a,
                       1e-11 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 33, 64, 100, 129,
                                           170));

TEST(EigenEquivalenceTest, RankDeficientInput) {
  // Rank-4 PSD matrix at a size where kAuto already picks the dc path.
  rng::Engine engine(23);
  const Matrix g = RandomGaussianMatrix(engine, 140, 4);
  const Matrix a = MultiplyABt(g, g);
  for (kernels::FactorImpl impl :
       {kernels::FactorImpl::kReference, kernels::FactorImpl::kBlocked,
        kernels::FactorImpl::kDc}) {
    ScopedFactorImpl force(impl);
    const StatusOr<SymmetricEigenResult> eig = SymmetricEigen(a);
    ASSERT_TRUE(eig.ok());
    // 136 of the 140 eigenvalues are zero (to roundoff).
    for (Index i = 0; i < 136; ++i) {
      EXPECT_NEAR(eig->eigenvalues[i], 0.0, 1e-9 * MaxAbs(a));
    }
    EXPECT_MATRIX_NEAR(GramAtA(eig->eigenvectors), Matrix::Identity(140),
                       1e-9);
  }
}

TEST(EigenEquivalenceTest, GradedSpectrum) {
  // Eigenvalues spanning 12 orders of magnitude: both paths must agree on
  // the large end to full precision.
  const Index n = 140;
  Vector spectrum(n);
  for (Index i = 0; i < n; ++i) {
    spectrum[i] = std::pow(10.0, -12.0 * static_cast<double>(i) /
                                     static_cast<double>(n - 1));
  }
  // Conjugate by a random orthogonal factor so the matrix is dense.
  rng::Engine engine(29);
  const StatusOr<Matrix> q_or =
      OrthonormalizeColumns(RandomGaussianMatrix(engine, n, n));
  ASSERT_TRUE(q_or.ok());
  Matrix scaled = *q_or;
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) scaled(i, j) *= spectrum[j];
  }
  const Matrix a = MultiplyABt(scaled, *q_or);

  StatusOr<SymmetricEigenResult> scalar_eig = Status::InvalidArgument("unset");
  {
    ScopedFactorImpl force(kernels::FactorImpl::kReference);
    scalar_eig = SymmetricEigen(a);
  }
  ASSERT_TRUE(scalar_eig.ok());
  for (kernels::FactorImpl impl :
       {kernels::FactorImpl::kBlocked, kernels::FactorImpl::kDc}) {
    SCOPED_TRACE(impl == kernels::FactorImpl::kDc ? "dc" : "blocked");
    StatusOr<SymmetricEigenResult> eig = Status::InvalidArgument("unset");
    {
      ScopedFactorImpl force(impl);
      eig = SymmetricEigen(a);
    }
    ASSERT_TRUE(eig.ok());
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(eig->eigenvalues[i], scalar_eig->eigenvalues[i], 1e-12 * n)
          << "eigenvalue " << i;
    }
  }
}

// --- Divide-and-conquer deflation branches --------------------------------
//
// The merge step has three escape hatches ahead of any secular work: tiny
// z-components (the subproblem eigenpair is already an eigenpair of the
// merged problem), a Givens rotation for (near-)equal eigenvalue pairs, and
// the rho = 0 short-circuit when the halves are exactly decoupled. Each test
// constructs a tridiagonal that provably forces one branch and checks the
// solution against the defining properties and the dense QL oracle.

Matrix DenseTridiagonal(const Vector& d, const Vector& e) {
  const Index n = d.size();
  Matrix t(n, n);
  for (Index i = 0; i < n; ++i) {
    t(i, i) = d[i];
    if (i > 0) {
      t(i, i - 1) = e[i];
      t(i - 1, i) = e[i];
    }
  }
  return t;
}

void CheckTridiagDcAgainstOracle(const Vector& d0, const Vector& e0,
                                 const char* label) {
  SCOPED_TRACE(label);
  const Index n = d0.size();
  Vector d = d0;
  Vector e = e0;
  Matrix v;
  ASSERT_TRUE(TridiagEigenDc(d, e, &v).ok());

  const Matrix t = DenseTridiagonal(d0, e0);
  StatusOr<SymmetricEigenResult> oracle = Status::InvalidArgument("unset");
  {
    ScopedFactorImpl force(kernels::FactorImpl::kReference);
    oracle = SymmetricEigen(t);
  }
  ASSERT_TRUE(oracle.ok());

  const double scale = std::max(1.0, MaxAbs(t)) * n;
  for (Index i = 0; i < n; ++i) {
    if (i > 0) {
      EXPECT_GE(d[i], d[i - 1]) << "ordering at " << i;
    }
    EXPECT_NEAR(d[i], oracle->eigenvalues[i], 1e-11 * scale)
        << "eigenvalue " << i;
  }
  EXPECT_MATRIX_NEAR(GramAtA(v), Matrix::Identity(n), 1e-11 * n);
  const Matrix tv = t * v;
  Matrix vl = v;
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) vl(i, j) *= d[j];
  }
  EXPECT_MATRIX_NEAR(tv, vl, 1e-11 * scale);
}

TEST(TridiagDcDeflationTest, ZeroCouplingDeflatesEveryMerge) {
  // All subdiagonals zero: rho = 0 at every merge, so every entry takes the
  // tiny-z branch and no secular equation is ever solved. The result must
  // be the sorted diagonal with unit eigenvector columns.
  const Index n = 80;
  Vector d(n), e(n);
  for (Index i = 0; i < n; ++i) {
    d[i] = static_cast<double>((i * 37) % n) - static_cast<double>(n) / 2.0;
  }
  CheckTridiagDcAgainstOracle(d, e, "rho = 0 everywhere");

  Vector dd = d;
  Vector ee = e;
  Matrix v;
  ASSERT_TRUE(TridiagEigenDc(dd, ee, &v).ok());
  // Eigenvectors of a diagonal matrix with distinct entries are signed unit
  // vectors: every column has exactly one ±1 entry.
  for (Index j = 0; j < n; ++j) {
    Index support = 0;
    for (Index i = 0; i < n; ++i) {
      if (v(i, j) != 0.0) {
        ++support;
        EXPECT_NEAR(std::abs(v(i, j)), 1.0, 0.0);
      }
    }
    EXPECT_EQ(support, 1) << "column " << j;
  }
}

TEST(TridiagDcDeflationTest, IdenticalHalvesForceGivensBranch) {
  // Two bitwise-identical 40-blocks joined by a coupling: the half spectra
  // are exactly equal pairwise, and the survivor rule forbids equal poles,
  // so every pair must go through the Givens rotation branch.
  const Index half = 40, n = 2 * half;
  Vector d(n), e(n);
  for (Index i = 0; i < half; ++i) {
    const double di = std::cos(static_cast<double>(i) * 1.7) * 3.0;
    const double ei = 0.5 + 0.4 * std::sin(static_cast<double>(i) * 2.3);
    d[i] = di;
    d[half + i] = di;
    if (i > 0) {
      e[i] = ei;
      e[half + i] = ei;
    }
  }
  e[half] = 0.7;  // the Cuppen coupling between the identical halves
  CheckTridiagDcAgainstOracle(d, e, "identical halves");
}

TEST(TridiagDcDeflationTest, InteriorDecouplingForcesExactZeroZ) {
  // A zero subdiagonal INSIDE the first half decouples rows [0, 24): the
  // eigenvectors of that sub-block have exactly zero weight on the merge
  // boundary row, so their z-components are exactly zero at the top merge —
  // the tiny-z branch with rho > 0.
  const Index n = 96;
  Vector d(n), e(n);
  for (Index i = 0; i < n; ++i) {
    d[i] = std::sin(static_cast<double>(i) * 0.9) * 2.0;
    if (i > 0) e[i] = 0.3 + 0.2 * std::cos(static_cast<double>(i) * 1.1);
  }
  e[24] = 0.0;
  CheckTridiagDcAgainstOracle(d, e, "interior decoupling");
}

TEST(TridiagDcDeflationTest, NearEqualPairsAtDeflationThreshold) {
  // Eigenvalue pairs split by 0, 1e-15, 1e-12, 1e-8: straddles the
  // |t·c·s| ≤ tol decision, so both outcomes of the Givens test occur.
  const Index n = 64;
  Vector d(n), e(n);
  const double splits[] = {0.0, 1e-15, 1e-12, 1e-8};
  for (Index i = 0; i < n; i += 2) {
    const double base = 1.0 + static_cast<double>(i) * 0.1;
    d[i] = base;
    if (i + 1 < n) d[i + 1] = base + splits[(i / 2) % 4];
  }
  for (Index i = 1; i < n; ++i) e[i] = 1e-14;  // whisper-weak couplings
  CheckTridiagDcAgainstOracle(d, e, "near-equal pairs");
}

TEST(TridiagDcDeflationTest, MismatchedBufferSizesRejected) {
  Vector d(4), e(3);
  Matrix v;
  EXPECT_EQ(TridiagEigenDc(d, e, &v).code(), StatusCode::kInvalidArgument);
}

// Restores the environment-default GEMM thread count on scope exit.
class ScopedGemmThreads {
 public:
  explicit ScopedGemmThreads(int threads) { kernels::SetGemmThreads(threads); }
  ~ScopedGemmThreads() { kernels::SetGemmThreads(0); }
};

TEST(ThreadSweepEquivalenceTest, EigenDcIsBitwiseIdenticalAcrossThreadCounts) {
  // n = 300 crosses the parallel-fork threshold (128) twice, so the sweep
  // exercises concurrent Cuppen subtrees with per-subtree workspaces, the
  // chunked secular solves, and the threaded GEMM underneath — all of
  // which promise bitwise thread-count independence.
  rng::Engine engine(77);
  const Matrix a = RandomSymmetric(engine, 300);
  ScopedFactorImpl force(kernels::FactorImpl::kDc);

  StatusOr<SymmetricEigenResult> baseline = Status::InvalidArgument("unset");
  {
    ScopedGemmThreads threads(1);
    baseline = SymmetricEigen(a);
  }
  ASSERT_TRUE(baseline.ok());

  for (int count : {2, 8}) {
    SCOPED_TRACE(count);
    ScopedGemmThreads threads(count);
    const StatusOr<SymmetricEigenResult> eig = SymmetricEigen(a);
    ASSERT_TRUE(eig.ok());
    EXPECT_VECTOR_NEAR(eig->eigenvalues, baseline->eigenvalues, 0.0);
    EXPECT_MATRIX_NEAR(eig->eigenvectors, baseline->eigenvectors, 0.0);
  }
}

TEST(ThreadSweepEquivalenceTest, BlockedQrIsBitwiseIdenticalAcrossThreadCounts) {
  // Tall panel QR: the threaded panel reflectors, block-T dots, and the
  // trailing GEMMs must reproduce the single-thread bits exactly.
  rng::Engine engine(78);
  const Matrix a = RandomGaussianMatrix(engine, 500, 120);
  ScopedFactorImpl force(kernels::FactorImpl::kBlocked);

  StatusOr<Matrix> baseline = Status::InvalidArgument("unset");
  {
    ScopedGemmThreads threads(1);
    baseline = OrthonormalizeColumns(a);
  }
  ASSERT_TRUE(baseline.ok());

  for (int count : {2, 8}) {
    SCOPED_TRACE(count);
    ScopedGemmThreads threads(count);
    const StatusOr<Matrix> q = OrthonormalizeColumns(a);
    ASSERT_TRUE(q.ok());
    EXPECT_MATRIX_NEAR(*q, *baseline, 0.0);
  }
}

TEST(ThreadSweepEquivalenceTest, EigenWorkspaceReuseIsDeterministicThreaded) {
  // Workspace reuse at 8 threads: repeated solves through one workspace
  // (including the lazily-grown left_child chain) must stay bit-identical
  // to the workspace-free call.
  rng::Engine engine(79);
  const Matrix a = RandomSymmetric(engine, 200);
  ScopedFactorImpl force(kernels::FactorImpl::kDc);
  ScopedGemmThreads threads(8);

  const StatusOr<SymmetricEigenResult> plain = SymmetricEigen(a);
  ASSERT_TRUE(plain.ok());
  SymmetricEigenWorkspace ws;
  for (int pass = 0; pass < 3; ++pass) {
    SCOPED_TRACE(pass);
    const StatusOr<SymmetricEigenResult> reused = SymmetricEigen(a, &ws);
    ASSERT_TRUE(reused.ok());
    EXPECT_VECTOR_NEAR(reused->eigenvalues, plain->eigenvalues, 0.0);
    EXPECT_MATRIX_NEAR(reused->eigenvectors, plain->eigenvectors, 0.0);
  }
}

}  // namespace
}  // namespace lrm::linalg
