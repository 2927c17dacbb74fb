// Initialization strategies for the ALM decomposition solver: where the
// first (B, L) iterate comes from.
//
// Two sources, in the order the solver prefers them:
//
//  * warm start — factors retained from a prior solve (or supplied by the
//                 caller), rescaled onto the constraint boundary. Skips
//                 the SVD/rank-estimation entirely; the seam γ/ε sweeps
//                 and workload-delta updates build on.
//  * exact SVD  — the cold path, seeded from the spectrum of W as the
//                 paper's Algorithm 1 is. Small shapes (min(m, n) ≤
//                 linalg::kSvdJacobiDispatchLimit) take the full Jacobi
//                 SVD; at size the init is partial-spectrum
//                 (linalg::PartialGramSvd / PartialGramSvdWithRank):
//                 Sturm-count rank search plus inverse iteration on the
//                 reduced Gram matrix produce exactly the top triplets
//                 the Lemma-3 construction reads, in O(p²·r) after the
//                 blocked reduction instead of a full O(p³) eigensolve.
//
// Rank-tolerance convention (see svd.h NumericalRank): every tolerance is
// RELATIVE to the top singular value. Spectra that came through a Gram
// factorization (the at-size partial path) clamp the tolerance through
// linalg::GramRankTolerance; the small-shape Jacobi path uses
// options.rank_tolerance raw.

#ifndef LRM_CORE_DECOMPOSITION_INIT_H_
#define LRM_CORE_DECOMPOSITION_INIT_H_

#include "base/status_or.h"
#include "core/decomposition.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"

namespace lrm::core {

/// \brief A starting iterate for the ALM loop, plus the provenance the
/// solver records in the result.
struct InitFactors {
  /// Recombination seed B₀ (m×r).
  linalg::Matrix b;
  /// Strategy seed L₀ (r×n), every column inside the unit L1 ball.
  linalg::Matrix l;
  /// Number of intermediate queries r = b.cols() = l.rows().
  linalg::Index rank = 0;
  /// True when seeded from prior factors rather than the spectrum of W.
  bool warm = false;
};

/// \brief Builds the diagonally-scaled SVD initialization B₀ = U·Σ·D⁻¹,
/// L₀ = D·Vᵀ with d_k ∝ √λ_k (padded with zeros when r exceeds the
/// available spectrum).
///
/// Lemma 3 uses the flat scaling D = I/√r, giving tr(B₀ᵀB₀) = r·Σλ².
/// Optimizing D under the Cauchy–Schwarz surrogate of the L1 constraint
/// (‖column‖₁ ≤ ‖d‖₂ since V's rows have 2-norm ≤ 1) gives d_k ∝ √λ_k and
/// tr(B₀ᵀB₀) = (Σλ)², which is never worse (Cauchy–Schwarz) and is ~r/log²r
/// better for the 1/k spectra of range workloads. Feasibility is exact for
/// ‖d‖₂ ≤ 1, and ColdInit renormalizes to Δ(L₀) = 1 anyway (Lemma 2).
void InitializeFromSvd(const linalg::SvdResult& svd, linalg::Index r,
                       linalg::Index m, linalg::Index n, linalg::Matrix& b,
                       linalg::Matrix& l);

/// \brief Cold initialization: chooses r (options.rank, or the automatic
/// ⌈1.2·rank(W)⌉), computes the spectrum (Jacobi SVD when small, the
/// partial Gram eigensolver at size), builds the Lemma-3 factors and
/// tightens them onto the constraint boundary (Δ(L₀) = 1, Lemma 2
/// rescaling).
StatusOr<InitFactors> ColdInit(const linalg::Matrix& w,
                               const DecompositionOptions& options);

/// \brief Warm initialization from prior or caller-supplied factors: checks
/// conformance and finiteness, then rescales (Lemma 2) when Δ(L) > 1 so the
/// seed enters the loop feasible w.r.t. the sensitivity constraint. The
/// factors are taken by value — pass copies to keep the originals.
StatusOr<InitFactors> WarmInit(linalg::Matrix b, linalg::Matrix l);

}  // namespace lrm::core

#endif  // LRM_CORE_DECOMPOSITION_INIT_H_
