#include "core/decomposition_init.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"

namespace lrm::core {

using linalg::Index;
using linalg::Matrix;

void InitializeFromSvd(const linalg::SvdResult& svd, Index r, Index m,
                       Index n, Matrix& b, Matrix& l) {
  const Index available = std::min(r, svd.singular_values.size());
  b.Resize(m, r);
  l.Resize(r, n);
  double sigma_sum = 0.0;
  for (Index k = 0; k < available; ++k) {
    sigma_sum += svd.singular_values[k];
  }
  if (sigma_sum <= 0.0) return;  // zero workload: zero factors are optimal
  for (Index k = 0; k < available; ++k) {
    const double sigma = svd.singular_values[k];
    if (sigma <= 0.0) continue;  // keep padded/null directions at zero
    const double d_k = std::sqrt(sigma / sigma_sum);
    const double b_scale = sigma / d_k;
    for (Index i = 0; i < m; ++i) {
      b(i, k) = b_scale * svd.u(i, k);
    }
    for (Index j = 0; j < n; ++j) {
      l(k, j) = d_k * svd.v(j, k);
    }
  }
  // Zero rows of L are still feasible (‖0‖₁ ≤ 1); the optimizer can
  // recruit them as extra intermediate queries.
}

StatusOr<InitFactors> ColdInit(const Matrix& w,
                               const DecompositionOptions& options) {
  const Index m = w.rows();
  const Index n = w.cols();

  // --- Choose r and initialize from the spectrum of W. ---
  // Small problems take the full Jacobi SVD with the raw (un-floored)
  // tolerance: no Gram squaring happened, so no √ε floor applies (see svd.h
  // NumericalRank). At size the init is partial-spectrum: the Lemma-3
  // construction only ever reads the top r ≪ p triplets, so a Sturm-count
  // rank search plus inverse iteration on the reduced Gram matrix
  // (linalg/tridiag_partial.h) replaces the full O(p³) eigensolve with
  // O(p²·r) — this is what makes exact rank search tractable at the
  // paper's n ≥ 4096 domains.
  const Index p = std::min(m, n);
  Index r = options.rank;
  linalg::SvdResult svd;
  if (r > 0 && p > linalg::kSvdJacobiDispatchLimit) {
    LRM_ASSIGN_OR_RETURN(svd, linalg::PartialGramSvd(w, r));
  } else if (r == 0 && p > linalg::kSvdJacobiDispatchLimit) {
    Index rank_w = 0;
    LRM_ASSIGN_OR_RETURN(
        svd, linalg::PartialGramSvdWithRank(w, options.rank_tolerance, 1.2,
                                            &rank_w));
    r = static_cast<Index>(
        std::ceil(1.2 * static_cast<double>(std::max<Index>(rank_w, 1))));
    LRM_LOG_DEBUG << "DecompositionSolver: partial rank(W)=" << rank_w
                  << ", using r=" << r;
  } else {
    LRM_ASSIGN_OR_RETURN(svd, linalg::Svd(w));
    if (r == 0) {
      const Index rank_w = linalg::NumericalRank(svd, options.rank_tolerance);
      r = static_cast<Index>(
          std::ceil(1.2 * static_cast<double>(std::max<Index>(rank_w, 1))));
      LRM_LOG_DEBUG << "DecompositionSolver: rank(W)=" << rank_w
                    << ", using r=" << r;
    }
  }

  InitFactors init;
  init.rank = r;
  init.warm = false;
  InitializeFromSvd(svd, r, m, n, init.b, init.l);
  // Tighten the initializer to the constraint boundary (Lemma 2 rescaling):
  // same product, Δ(L) = 1 exactly, smaller tr(BᵀB).
  const double delta0 = linalg::MaxColumnAbsSum(init.l);
  if (delta0 > 0.0) {
    init.l /= delta0;
    init.b *= delta0;
  }
  return init;
}

StatusOr<InitFactors> WarmInit(Matrix b, Matrix l) {
  if (b.cols() != l.rows() || b.rows() == 0 || l.cols() == 0) {
    return Status::InvalidArgument(
        "WarmInit: seed factors do not conform (B is m×r, L is r×n)");
  }
  if (!linalg::AllFinite(b) || !linalg::AllFinite(l)) {
    return Status::InvalidArgument(
        "WarmInit: seed factors contain NaN or Inf");
  }
  InitFactors init;
  init.rank = b.cols();
  init.warm = true;
  init.b = std::move(b);
  init.l = std::move(l);
  // An infeasible seed (Δ > 1) would hand the L-subproblem an iterate
  // outside its own constraint set; the Lemma 2 rescaling restores
  // feasibility without moving the product B·L.
  const double delta0 = linalg::MaxColumnAbsSum(init.l);
  if (delta0 > 1.0) {
    init.l /= delta0;
    init.b *= delta0;
  }
  return init;
}

}  // namespace lrm::core
