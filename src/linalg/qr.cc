#include "linalg/qr.h"

#include <algorithm>
#include <cmath>

#include "linalg/householder_wy.h"
#include "linalg/kernels/kernels.h"

namespace lrm::linalg {

namespace {

namespace kernels = lrm::linalg::kernels;

// Panel width of the blocked factorization. 32 keeps the scalar panel work
// a small fraction of the GEMM flops for tall shapes (m up to a few
// thousand, k a few hundred).
constexpr Index kQrPanel = 32;

// kAuto dispatch: blocked once the factorization has enough flops
// (~2·m·k²) to amortize the panel bookkeeping and the GEMMs clear the
// kernel layer's own blocked threshold.
bool UseBlockedQr(Index m, Index n) {
  const Index k = std::min(m, n);
  return kernels::UseBlockedFactor(k >= 16 && m * k * k >= (Index{1} << 18));
}

// Compact-WY blocked factorization of ws.work in place: R on/above the
// diagonal, reflector tails below, scalar factors in ws.tau.
void BlockedQrFactor(QrWorkspace& ws) {
  Matrix& work = ws.work;
  const Index m = work.rows();
  const Index n = work.cols();
  const Index k = std::min(m, n);
  ws.tau.assign(static_cast<std::size_t>(k), 0.0);
  for (Index j = 0; j < k; j += kQrPanel) {
    const Index jb = std::min(kQrPanel, k - j);
    const Index rows = m - j;
    double* panel = work.data() + j * n + j;
    internal::PanelQr(panel, n, rows, jb, ws.tau.data() + j);
    const Index trailing = n - j - jb;
    if (trailing > 0) {
      ws.v.resize(static_cast<std::size_t>(rows * jb));
      internal::ExtractPanelV(panel, n, rows, jb, ws.v.data());
      ws.t.resize(static_cast<std::size_t>(jb * jb));
      internal::BuildBlockT(ws.v.data(), jb, rows, jb, ws.tau.data() + j,
                            ws.t.data(), jb);
      // Trailing matrix ← Qᵀ·trailing = (I − V·Tᵀ·Vᵀ)·trailing.
      internal::ApplyBlockReflectorLeft(ws.v.data(), jb, ws.t.data(), jb,
                                        rows, jb, /*transpose_t=*/true,
                                        work.data() + j * n + j + jb, n,
                                        trailing, &ws.apply);
    }
  }
}

// Accumulates the thin Q (m×k) from a BlockedQrFactor-ed workspace by
// applying the block reflectors to the identity in reverse panel order.
void BlockedFormThinQ(QrWorkspace& ws, Matrix* q) {
  const Matrix& work = ws.work;
  const Index m = work.rows();
  const Index n = work.cols();
  const Index k = std::min(m, n);
  q->Resize(m, k);  // zero-filled
  for (Index i = 0; i < k; ++i) (*q)(i, i) = 1.0;
  if (k == 0) return;
  const Index last_panel = ((k - 1) / kQrPanel) * kQrPanel;
  for (Index j = last_panel; j >= 0; j -= kQrPanel) {
    const Index jb = std::min(kQrPanel, k - j);
    const Index rows = m - j;
    const double* panel = work.data() + j * n + j;
    ws.v.resize(static_cast<std::size_t>(rows * jb));
    internal::ExtractPanelV(panel, n, rows, jb, ws.v.data());
    ws.t.resize(static_cast<std::size_t>(jb * jb));
    internal::BuildBlockT(ws.v.data(), jb, rows, jb, ws.tau.data() + j,
                          ws.t.data(), jb);
    // Q(j:m, j:k) ← (I − V·T·Vᵀ)·Q(j:m, j:k); columns left of j are still
    // identity columns with no support in rows ≥ j, so they are no-ops.
    internal::ApplyBlockReflectorLeft(ws.v.data(), jb, ws.t.data(), jb, rows,
                                      jb, /*transpose_t=*/false,
                                      q->data() + j * k + j, k, k - j,
                                      &ws.apply);
    if (j == 0) break;
  }
}

// Upper-trapezoidal R (k×n) out of a factored workspace.
Matrix ExtractR(const Matrix& work) {
  const Index n = work.cols();
  const Index k = std::min(work.rows(), n);
  Matrix r(k, n);
  for (Index i = 0; i < k; ++i) {
    for (Index j = i; j < n; ++j) r(i, j) = work(i, j);
  }
  return r;
}

// Scalar reference factorization (the pre-blocked seed algorithm), in
// place: the normalized Householder vectors overwrite the lower triangle
// (head included on the diagonal), R's diagonal lands in `rdiag` (resized),
// R's strict upper triangle stays on/above the diagonal of `r`.
void ScalarQrFactorInPlace(Matrix& r, std::vector<double>& rdiag) {
  const Index m = r.rows();
  const Index n = r.cols();
  const Index k = std::min(m, n);
  rdiag.assign(static_cast<std::size_t>(k), 0.0);

  for (Index col = 0; col < k; ++col) {
    // Norm of the column below (and including) the diagonal.
    double norm = 0.0;
    for (Index i = col; i < m; ++i) norm = std::hypot(norm, r(i, col));
    if (norm != 0.0) {
      if (r(col, col) < 0) norm = -norm;
      for (Index i = col; i < m; ++i) r(i, col) /= norm;
      r(col, col) += 1.0;
      // Apply the reflector to the remaining columns.
      for (Index j = col + 1; j < n; ++j) {
        double s = 0.0;
        for (Index i = col; i < m; ++i) s += r(i, col) * r(i, j);
        s = -s / r(col, col);
        for (Index i = col; i < m; ++i) r(i, j) += s * r(i, col);
      }
    }
    rdiag[static_cast<std::size_t>(col)] = -norm;
  }
}

// Accumulates the thin Q (m×k) of a ScalarQrFactorInPlace-d matrix into
// `*q` (resized; Matrix::Resize reuses capacity, so workspace-driven loops
// stay allocation-free).
void ScalarFormThinQInto(const Matrix& r, Matrix* q) {
  const Index m = r.rows();
  const Index k = std::min(m, r.cols());
  q->Resize(m, k);  // zero-filled
  for (Index col = k - 1; col >= 0; --col) {
    (*q)(col, col) = 1.0;
    for (Index j = col; j < k; ++j) {
      if (r(col, col) != 0.0) {
        double s = 0.0;
        for (Index i = col; i < m; ++i) s += r(i, col) * (*q)(i, j);
        s = -s / r(col, col);
        for (Index i = col; i < m; ++i) (*q)(i, j) += s * r(i, col);
      }
    }
  }
}

StatusOr<QrResult> ScalarHouseholderQrInPlace(Matrix& r,
                                              std::vector<double>& rdiag) {
  const Index n = r.cols();
  const Index k = std::min(r.rows(), n);
  ScalarQrFactorInPlace(r, rdiag);
  QrResult result;
  ScalarFormThinQInto(r, &result.q);
  // Extract the upper-triangular R (k×n).
  result.r.Resize(k, n);
  for (Index i = 0; i < k; ++i) {
    result.r(i, i) = rdiag[static_cast<std::size_t>(i)];
    for (Index j = i + 1; j < n; ++j) result.r(i, j) = r(i, j);
  }
  return result;
}

}  // namespace

StatusOr<QrResult> HouseholderQr(const Matrix& a) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("HouseholderQr: empty matrix");
  }
  if (!UseBlockedQr(a.rows(), a.cols())) {
    Matrix work = a;
    std::vector<double> rdiag;
    return ScalarHouseholderQrInPlace(work, rdiag);
  }
  QrWorkspace ws;
  ws.work = a;
  BlockedQrFactor(ws);
  QrResult result;
  result.r = ExtractR(ws.work);
  BlockedFormThinQ(ws, &result.q);
  return result;
}

StatusOr<Matrix> OrthonormalizeColumns(const Matrix& a) {
  LRM_ASSIGN_OR_RETURN(QrResult qr, HouseholderQr(a));
  return std::move(qr.q);
}

Status OrthonormalizeColumnsInto(ConstMatrixView a, Matrix* q,
                                 QrWorkspace* ws) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("OrthonormalizeColumnsInto: empty matrix");
  }
  CopyInto(a, &ws->work);
  if (!UseBlockedQr(a.rows(), a.cols())) {
    // Scalar path through the same workspace: tau doubles as the rdiag
    // scratch and Q lands straight in *q, so small-shape callers are as
    // allocation-free as the blocked path.
    ScalarQrFactorInPlace(ws->work, ws->tau);
    ScalarFormThinQInto(ws->work, q);
    return Status::OK();
  }
  BlockedQrFactor(*ws);
  BlockedFormThinQ(*ws, q);
  return Status::OK();
}

}  // namespace lrm::linalg
