// Thin Householder QR and an orthonormalization primitive built on it.
//
// Two implementations behind one API (dispatch mirrors the GEMM kernels,
// see linalg/kernels/kernels.h):
//
//  * scalar    — the classic column-at-a-time Householder loop. The
//                reference; wins below the blocking threshold.
//  * blocked   — compact-WY panels (linalg/householder_wy.h): panel
//                factorization + GEMM trailing-matrix updates, thin Q
//                accumulated by GEMM-applied block reflectors. BLAS-3-rich;
//                several times faster once min(m, n) clears ~32.
//
// LRM_FACTOR_KERNEL / kernels::SetFactorImpl force either path.

#ifndef LRM_LINALG_QR_H_
#define LRM_LINALG_QR_H_

#include <vector>

#include "base/status_or.h"
#include "linalg/matrix.h"
#include "linalg/matrix_view.h"

namespace lrm::linalg {

/// \brief Thin QR factorization A = Q·R with Q m×k orthonormal columns and
/// R k×n upper triangular, k = min(m, n).
struct QrResult {
  Matrix q;
  Matrix r;
};

/// \brief Reusable scratch for the blocked QR path. Hot loops hold one of
/// these so repeated orthonormalizations stop allocating; all buffers grow
/// to the high-water mark and stay there.
struct QrWorkspace {
  Matrix work;                  // m×n factored copy
  std::vector<double> tau;      // reflector scalars
  std::vector<double> v;        // extracted unit-lower-trapezoidal panel
  std::vector<double> t;        // compact-WY triangular factor
  std::vector<double> apply;    // block-reflector GEMM scratch
};

/// \brief Computes the thin Householder QR of `a` (any shape).
StatusOr<QrResult> HouseholderQr(const Matrix& a);

/// \brief Returns a matrix whose columns orthonormally span the column space
/// of `a` (the Q factor of the thin QR).
StatusOr<Matrix> OrthonormalizeColumns(const Matrix& a);

/// \brief Writes the thin-QR Q factor of `a` into `*q` (resized to
/// a.rows()×min(a.rows(), a.cols()); Matrix::Resize reuses capacity, so
/// repeated calls with a workspace are allocation-free at steady state).
///
/// `a` is copied into ws->work before factoring, so `q` may alias `a`'s
/// storage (orthonormalize in place); `a` must not view ws->work itself.
Status OrthonormalizeColumnsInto(ConstMatrixView a, Matrix* q,
                                 QrWorkspace* ws);

}  // namespace lrm::linalg

#endif  // LRM_LINALG_QR_H_
