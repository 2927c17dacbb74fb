// Singular value decomposition, two ways:
//
//  * JacobiSvd — one-sided Jacobi (Hestenes). Most accurate; O(mn²) per
//                sweep, best for min(m,n) up to a few hundred.
//  * GramSvd   — eigendecomposition of the smaller Gram matrix. Squares the
//                condition number but is much faster for the larger shapes
//                in the experiment grids. PartialGramSvd and
//                PartialGramSvdWithRank compute only the top of its
//                spectrum; they seed the LRM decomposition at size.
//
// Svd() dispatches between JacobiSvd and GramSvd by size.

#ifndef LRM_LINALG_SVD_H_
#define LRM_LINALG_SVD_H_

#include "base/status_or.h"
#include "linalg/matrix.h"

namespace lrm::linalg {

/// \brief Thin SVD A ≈ U·diag(σ)·Vᵀ.
struct SvdResult {
  /// m×k, orthonormal columns.
  Matrix u;
  /// k singular values, non-increasing, non-negative.
  Vector singular_values;
  /// n×k, orthonormal columns (note: V, not Vᵀ).
  Matrix v;

  /// Reconstructs U·diag(σ)·Vᵀ (for testing).
  Matrix Reconstruct() const;
};

/// \brief Options for the iterative SVD algorithms.
struct SvdOptions {
  /// Convergence threshold on the relative off-diagonal mass.
  double tolerance = 1e-12;
  /// Maximum Jacobi sweeps before giving up.
  int max_sweeps = 60;
};

/// \brief One-sided Jacobi SVD. Full thin decomposition, highest accuracy.
StatusOr<SvdResult> JacobiSvd(const Matrix& a, const SvdOptions& options = {});

/// \brief SVD via symmetric eigendecomposition of the smaller Gram matrix.
///
/// Singular values below √ε·σ₁ lose relative accuracy (the Gram step squares
/// the condition number); fine for rank estimation and solver seeding. The
/// eigensolve rides the SymmetricEigen dispatch, so at size it runs the
/// divide-and-conquer tridiagonal path (linalg/eigen_dc.h) — this is what
/// keeps the exact-SVD fallback usable at the paper's n ≈ 4096 domains.
StatusOr<SvdResult> GramSvd(const Matrix& a);

/// \brief Top-k truncation of GramSvd: only the k largest singular triplets,
/// via PartialSymmetricEigen on the smaller Gram matrix — O(p²·k) after the
/// reduction instead of the full O(p³) eigensolve (p = min(m, n)). Same
/// accuracy caveat as GramSvd. k is clamped to p.
StatusOr<SvdResult> PartialGramSvd(const Matrix& a, Index k);

/// \brief Rank-adaptive PartialGramSvd: one reduction of the Gram matrix, a
/// Sturm count of singular values above rel_tol·σ₁ (`*rank` receives it —
/// the numerical rank under GramSvd's conventions), then the top
/// min(⌈growth·rank⌉, p) triplets, all without ever computing the rest of
/// the spectrum. `rel_tol` is clamped through GramRankTolerance(). This is
/// the decomposition's exact-fallback workhorse: rank search plus the
/// Lemma-3 triplets in a single partial factorization.
StatusOr<SvdResult> PartialGramSvdWithRank(const Matrix& a, double rel_tol,
                                           double growth, Index* rank);

/// \brief Shape threshold of the Svd() dispatcher: min(m, n) at or below
/// this uses JacobiSvd, larger shapes use GramSvd.
inline constexpr Index kSvdJacobiDispatchLimit = 160;

/// \brief Dispatches to JacobiSvd for small matrices and GramSvd otherwise.
StatusOr<SvdResult> Svd(const Matrix& a);

/// \brief Number of singular values > rel_tol · σ_max.
///
/// The tolerance is RELATIVE — always a fraction of the largest singular
/// value, never an absolute threshold; there is no absolute-tolerance
/// variant in this codebase. Callers holding a spectrum that came through a
/// Gram factorization (GramSvd, PartialGramSvd, PartialGramSvdWithRank)
/// must clamp their tolerance through GramRankTolerance() first: the Gram
/// step squares the condition number, so values below ~√ε·σ₁ are numerical
/// noise and a tighter cutoff would count garbage as spectrum.
Index NumericalRank(const SvdResult& svd, double rel_tol = 1e-9);

/// \brief Floor on relative rank tolerances for Gram-derived spectra
/// (~√ε: singular values below this fraction of σ₁ cannot be resolved once
/// the spectrum has been squared).
inline constexpr double kGramRankTolFloor = 1e-7;

/// \brief Effective relative rank tolerance on the Gram path:
/// max(rel_tol, kGramRankTolFloor).
inline double GramRankTolerance(double rel_tol) {
  return rel_tol > kGramRankTolFloor ? rel_tol : kGramRankTolFloor;
}

/// \brief Numerical rank of `a`: exact Jacobi SVD when
/// min(m,n) ≤ kSvdJacobiDispatchLimit; above it, a Sturm count on the
/// reduced Gram matrix (SymmetricEigenCountAbove) — no eigenvectors, no
/// full spectrum, with rel_tol clamped through GramRankTolerance().
StatusOr<Index> EstimateRank(const Matrix& a, double rel_tol = 1e-9);

/// \brief Moore–Penrose pseudo-inverse from a precomputed SVD; singular
/// values ≤ rel_tol·σ_max are treated as zero.
Matrix PseudoInverseFromSvd(const SvdResult& svd, double rel_tol = 1e-12);

/// \brief Moore–Penrose pseudo-inverse of `a`.
StatusOr<Matrix> PseudoInverse(const Matrix& a, double rel_tol = 1e-12);

}  // namespace lrm::linalg

#endif  // LRM_LINALG_SVD_H_
