#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "base/string_util.h"
#include "linalg/eigen_sym.h"

namespace lrm::linalg {

namespace {

// Sorts the columns of (u, s, v) by descending singular value.
void SortSvdDescending(Matrix& u, Vector& s, Matrix& v) {
  const Index k = s.size();
  std::vector<Index> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), Index{0});
  std::sort(order.begin(), order.end(),
            [&s](Index a, Index b) { return s[a] > s[b]; });

  Matrix u_sorted(u.rows(), k);
  Matrix v_sorted(v.rows(), k);
  Vector s_sorted(k);
  for (Index dst = 0; dst < k; ++dst) {
    const Index src = order[static_cast<std::size_t>(dst)];
    s_sorted[dst] = s[src];
    for (Index i = 0; i < u.rows(); ++i) u_sorted(i, dst) = u(i, src);
    for (Index i = 0; i < v.rows(); ++i) v_sorted(i, dst) = v(i, src);
  }
  u = std::move(u_sorted);
  s = std::move(s_sorted);
  v = std::move(v_sorted);
}

// One-sided Jacobi on a tall (m >= n) matrix: orthogonalizes the columns of
// `work` by plane rotations, accumulating them into `v` (n×n).
Status JacobiOrthogonalize(Matrix& work, Matrix& v,
                           const SvdOptions& options) {
  const Index m = work.rows();
  const Index n = work.cols();
  v = Matrix::Identity(n);

  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    bool rotated = false;
    for (Index p = 0; p < n - 1; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (Index i = 0; i < m; ++i) {
          const double wp = work(i, p);
          const double wq = work(i, q);
          alpha += wp * wp;
          beta += wq * wq;
          gamma += wp * wq;
        }
        if (std::abs(gamma) <=
            options.tolerance * std::sqrt(alpha * beta) + 1e-300) {
          continue;
        }
        rotated = true;
        // Jacobi rotation zeroing the (p,q) inner product.
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t =
            ((zeta >= 0.0) ? 1.0 : -1.0) /
            (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (Index i = 0; i < m; ++i) {
          const double wp = work(i, p);
          const double wq = work(i, q);
          work(i, p) = c * wp - s * wq;
          work(i, q) = s * wp + c * wq;
        }
        for (Index i = 0; i < n; ++i) {
          const double vp = v(i, p);
          const double vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (!rotated) return Status::OK();
  }
  return Status::NotConverged(StrFormat(
      "JacobiSvd: not converged after %d sweeps", options.max_sweeps));
}

// Converts an ascending symmetric eigen factorization of the Gram matrix
// (AAᵀ when use_aat, AᵀA otherwise) into descending singular triplets of A
// and recovers the other factor as Aᵀ·U·Σ⁻¹ (resp. A·V·Σ⁻¹). `eig` may hold
// the full spectrum or any top-k suffix — the recovery is per-column.
SvdResult RecoverSvdFromGramEigen(const Matrix& a, bool use_aat,
                                  const SymmetricEigenResult& eig) {
  const Index p = eig.eigenvectors.rows();
  const Index k = eig.eigenvalues.size();
  // Eigenvalues ascending; convert to descending singular values.
  Vector s(k);
  Matrix w(p, k);  // eigenvectors reordered descending
  for (Index j = 0; j < k; ++j) {
    const Index src = k - 1 - j;
    const double lambda = std::max(eig.eigenvalues[src], 0.0);
    s[j] = std::sqrt(lambda);
    for (Index i = 0; i < p; ++i) w(i, j) = eig.eigenvectors(i, src);
  }

  // Recover the other factor: if W holds eigenvectors of AAᵀ (i.e. U), then
  // V = Aᵀ U Σ⁻¹; symmetric in the other case.
  const double cutoff =
      (k > 0 ? s[0] : 0.0) * std::numeric_limits<double>::epsilon() *
      static_cast<double>(std::max(a.rows(), a.cols()));
  if (use_aat) {
    Matrix u = std::move(w);            // m×k
    Matrix v = MultiplyAtB(a, u);       // n×k = Aᵀ·U
    for (Index j = 0; j < k; ++j) {
      const double inv = s[j] > cutoff ? 1.0 / s[j] : 0.0;
      for (Index i = 0; i < v.rows(); ++i) v(i, j) *= inv;
    }
    return SvdResult{std::move(u), std::move(s), std::move(v)};
  }
  Matrix v = std::move(w);         // n×k
  Matrix u = a * v;                // m×k = A·V
  for (Index j = 0; j < k; ++j) {
    const double inv = s[j] > cutoff ? 1.0 / s[j] : 0.0;
    for (Index i = 0; i < u.rows(); ++i) u(i, j) *= inv;
  }
  return SvdResult{std::move(u), std::move(s), std::move(v)};
}

}  // namespace

Matrix SvdResult::Reconstruct() const {
  Matrix scaled = u;  // scale columns by singular values
  for (Index j = 0; j < singular_values.size(); ++j) {
    for (Index i = 0; i < u.rows(); ++i) {
      scaled(i, j) *= singular_values[j];
    }
  }
  return MultiplyABt(scaled, v);
}

StatusOr<SvdResult> JacobiSvd(const Matrix& a, const SvdOptions& options) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("JacobiSvd: empty matrix");
  }
  const bool transposed = a.rows() < a.cols();
  Matrix work = transposed ? Transpose(a) : a;
  const Index m = work.rows();
  const Index n = work.cols();

  Matrix v;
  Status status = JacobiOrthogonalize(work, v, options);
  if (!status.ok() && status.code() != StatusCode::kNotConverged) {
    return status;
  }

  // Column norms are the singular values; normalized columns form U.
  Vector s(n);
  Matrix u(m, n);
  for (Index j = 0; j < n; ++j) {
    double norm = 0.0;
    for (Index i = 0; i < m; ++i) norm += work(i, j) * work(i, j);
    norm = std::sqrt(norm);
    s[j] = norm;
    if (norm > 0.0) {
      const double inv = 1.0 / norm;
      for (Index i = 0; i < m; ++i) u(i, j) = work(i, j) * inv;
    }
  }
  SortSvdDescending(u, s, v);

  if (transposed) {
    return SvdResult{std::move(v), std::move(s), std::move(u)};
  }
  return SvdResult{std::move(u), std::move(s), std::move(v)};
}

StatusOr<SvdResult> GramSvd(const Matrix& a) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("GramSvd: empty matrix");
  }
  const bool use_aat = a.rows() <= a.cols();
  const Matrix gram = use_aat ? GramAAt(a) : GramAtA(a);
  LRM_ASSIGN_OR_RETURN(SymmetricEigenResult eig, SymmetricEigen(gram));
  return RecoverSvdFromGramEigen(a, use_aat, eig);
}

StatusOr<SvdResult> PartialGramSvd(const Matrix& a, Index k) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("PartialGramSvd: empty matrix");
  }
  if (k <= 0) {
    return Status::InvalidArgument("PartialGramSvd: k must be > 0");
  }
  const bool use_aat = a.rows() <= a.cols();
  const Matrix gram = use_aat ? GramAAt(a) : GramAtA(a);
  LRM_ASSIGN_OR_RETURN(SymmetricEigenResult eig,
                       PartialSymmetricEigen(gram, k));
  return RecoverSvdFromGramEigen(a, use_aat, eig);
}

StatusOr<SvdResult> PartialGramSvdWithRank(const Matrix& a, double rel_tol,
                                           double growth, Index* rank) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("PartialGramSvdWithRank: empty matrix");
  }
  const bool use_aat = a.rows() <= a.cols();
  const Matrix gram = use_aat ? GramAAt(a) : GramAtA(a);
  // σ > tol·σ₁ on A is λ > tol²·λ_max on the Gram matrix.
  const double tol = GramRankTolerance(rel_tol);
  Index count = 0;
  LRM_ASSIGN_OR_RETURN(
      SymmetricEigenResult eig,
      PartialSymmetricEigenAboveCutoff(gram, tol * tol, growth, &count));
  if (rank != nullptr) *rank = count;
  return RecoverSvdFromGramEigen(a, use_aat, eig);
}

StatusOr<SvdResult> Svd(const Matrix& a) {
  if (std::min(a.rows(), a.cols()) <= kSvdJacobiDispatchLimit) {
    return JacobiSvd(a);
  }
  return GramSvd(a);
}

Index NumericalRank(const SvdResult& svd, double rel_tol) {
  if (svd.singular_values.size() == 0) return 0;
  const double cutoff = svd.singular_values[0] * rel_tol;
  Index rank = 0;
  for (Index i = 0; i < svd.singular_values.size(); ++i) {
    if (svd.singular_values[i] > cutoff) ++rank;
  }
  return rank;
}

StatusOr<Index> EstimateRank(const Matrix& a, double rel_tol) {
  if (std::min(a.rows(), a.cols()) <= kSvdJacobiDispatchLimit) {
    LRM_ASSIGN_OR_RETURN(SvdResult svd, JacobiSvd(a));
    return NumericalRank(svd, rel_tol);
  }
  // At size, count instead of decompose: σ > tol·σ₁ on A is λ > tol²·λ_max
  // on the Gram matrix, and a Sturm count answers that with one
  // tridiagonalization and two bisections — no eigenvectors at all. The
  // tolerance floor compensates the squared condition number (singular
  // values below ~√ε·σ₁ are numerical noise; tighter cutoffs would
  // overcount).
  const double tol = GramRankTolerance(rel_tol);
  const bool use_aat = a.rows() <= a.cols();
  const Matrix gram = use_aat ? GramAAt(a) : GramAtA(a);
  return SymmetricEigenCountAbove(gram, tol * tol);
}

Matrix PseudoInverseFromSvd(const SvdResult& svd, double rel_tol) {
  const Index k = svd.singular_values.size();
  const double cutoff =
      (k > 0 ? svd.singular_values[0] : 0.0) * rel_tol;
  // A⁺ = V·diag(1/σ)·Uᵀ.
  Matrix v_scaled = svd.v;
  for (Index j = 0; j < k; ++j) {
    const double inv =
        svd.singular_values[j] > cutoff ? 1.0 / svd.singular_values[j] : 0.0;
    for (Index i = 0; i < v_scaled.rows(); ++i) v_scaled(i, j) *= inv;
  }
  return MultiplyABt(v_scaled, svd.u);
}

StatusOr<Matrix> PseudoInverse(const Matrix& a, double rel_tol) {
  LRM_ASSIGN_OR_RETURN(SvdResult svd, Svd(a));
  return PseudoInverseFromSvd(svd, rel_tol);
}

}  // namespace lrm::linalg
