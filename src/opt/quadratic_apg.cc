#include "opt/quadratic_apg.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/string_util.h"
#include "linalg/kernels/target_clones.h"
#include "linalg/matrix_view.h"
#include "opt/l1_column_block.h"

namespace lrm::opt {

using linalg::Index;
using linalg::Matrix;

namespace {

constexpr Index kW = internal::kL1ColumnBlock;

// Largest eigenvalue of a symmetric PSD matrix by power iteration, with
// every temporary in the workspace.
double EstimateLargestEigenvalue(const Matrix& h, int steps,
                                 QuadraticApgWorkspace& ws) {
  const Index r = h.rows();
  if (r == 0) return 0.0;
  linalg::Vector& v = ws.power_v;
  linalg::Vector& next = ws.power_next;
  if (v.size() != r) v = linalg::Vector(r);
  // Deterministic perturbation avoids starting orthogonal to the top
  // eigenvector for structured H.
  for (Index i = 0; i < r; ++i) v[i] = 1.0 + 1e-3 * static_cast<double>(i % 7);
  double lambda = 0.0;
  for (int it = 0; it < steps; ++it) {
    linalg::MultiplyInto(h, v, &next);
    const double norm = linalg::Norm2(next);
    if (norm <= 1e-300) return 0.0;  // H ≈ 0
    next /= norm;
    linalg::MultiplyInto(h, next, &ws.power_hv);
    lambda = linalg::Dot(next, ws.power_hv);
    std::swap(v, next);
  }
  return std::max(lambda, 0.0);
}

// Register tile of MultiplyBlock: kTileRows rows of H·s by kTileCols
// columns, accumulated in registers like the GEMM micro-kernel.
constexpr Index kTileRows = 4;
constexpr Index kTileCols = 8;

// Rows of H rounded up to whole kTileRows panels.
Index PaddedRows(Index r) {
  return (r + kTileRows - 1) / kTileRows * kTileRows;
}

// Packs H (r×r) into kTileRows-row panels the way the GEMM packs op(A):
// panel p holds rows [p·kTileRows, (p+1)·kTileRows), entry (i, k) at
// [k·kTileRows + i], rows past r zero.
void PackH(const Matrix& h, std::vector<double>* packed) {
  const Index r = h.rows();
  packed->assign(static_cast<std::size_t>(PaddedRows(r) * r), 0.0);
  for (Index i = 0; i < r; ++i) {
    double* panel = packed->data() + (i / kTileRows) * kTileRows * r;
    for (Index k = 0; k < r; ++k) {
      panel[k * kTileRows + i % kTileRows] = h(i, k);
    }
  }
}

// y = H·s for the r×kW block s (row stride kW), H given packed by PackH;
// y has PaddedRows(r) rows, the padding rows come out zero. Entry (i, c)
// accumulates h(i,k)·s(k,c) over k in order, as the GEMM micro-kernel does.
inline void MultiplyBlock(const double* h_packed, Index r, const double* s,
                          double* y) {
  const Index rows = PaddedRows(r);
  for (Index i0 = 0; i0 < rows; i0 += kTileRows) {
    const double* panel = h_packed + i0 * r;
    for (Index c0 = 0; c0 < kW; c0 += kTileCols) {
      double acc[kTileRows][kTileCols] = {};
      for (Index k = 0; k < r; ++k) {
        const double* h_k = panel + k * kTileRows;
        const double* s_row = s + k * kW + c0;
        for (Index i = 0; i < kTileRows; ++i) {
          const double h_ik = h_k[i];
          for (Index c = 0; c < kTileCols; ++c) acc[i][c] += h_ik * s_row[c];
        }
      }
      for (Index i = 0; i < kTileRows; ++i) {
        std::copy(acc[i], acc[i] + kTileCols, y + (i0 + i) * kW + c0);
      }
    }
  }
}

// One APG step over every column block of the r×n iterates: from X (`x`)
// and X_prev (`x_prev`), writes X_next = Π(S − step·(H·S − T)) with
// S = X + α(X − X_prev) over `x_prev`, and returns ‖X_next − X‖² and ‖X‖²
// in *movement and *x_norm.
LRM_KERNEL_TARGET_CLONES
void ApgStep(const double* h_packed, const double* t, const double* x,
             double* x_prev, Index r, Index n, double alpha, double step,
             double radius, double* s, double* y, double* movement,
             double* x_norm) {
  double movement_sum = 0.0, x_sum = 0.0;
  for (Index j0 = 0; j0 < n; j0 += kW) {
    const Index width = std::min(kW, n - j0);
    for (Index i = 0; i < r; ++i) {
      const double* x_row = x + i * n + j0;
      const double* p_row = x_prev + i * n + j0;
      double* s_row = s + i * kW;
      for (Index c = 0; c < width; ++c) {
        s_row[c] = x_row[c] + alpha * (x_row[c] - p_row[c]);
      }
      std::fill(s_row + width, s_row + kW, 0.0);
    }
    MultiplyBlock(h_packed, r, s, y);
    for (Index i = 0; i < r; ++i) {
      const double* t_row = t + i * n + j0;
      const double* s_row = s + i * kW;
      double* y_row = y + i * kW;
      for (Index c = 0; c < width; ++c) {
        y_row[c] = s_row[c] - step * (y_row[c] - t_row[c]);
      }
    }
    internal::ProjectColumnBlock(y, r, radius);

    double movement_lane[kW] = {}, x_lane[kW] = {};
    for (Index i = 0; i < r; ++i) {
      const double* x_row = x + i * n + j0;
      const double* y_row = y + i * kW;
      double* out = x_prev + i * n + j0;
      for (Index c = 0; c < width; ++c) {
        const double d = y_row[c] - x_row[c];
        movement_lane[c] += d * d;
        x_lane[c] += x_row[c] * x_row[c];
        out[c] = y_row[c];
      }
    }
    double movement_block = 0.0, x_block = 0.0;
    for (Index c = 0; c < kW; ++c) {
      movement_block += movement_lane[c];
      x_block += x_lane[c];
    }
    movement_sum += movement_block;
    x_sum += x_block;
  }
  *movement = movement_sum;
  *x_norm = x_sum;
}

// f(X) = ½<X,HX> − <T,X> and the magnitude ½Σ|X∘HX| + Σ|T∘X|, one block
// pass.
LRM_KERNEL_TARGET_CLONES
void EvaluateObjective(const double* h_packed, const double* t, const double* x,
                       Index r, Index n, double* s, double* y,
                       double* objective, double* magnitude) {
  double value_sum = 0.0, magnitude_sum = 0.0;
  for (Index j0 = 0; j0 < n; j0 += kW) {
    const Index width = std::min(kW, n - j0);
    for (Index i = 0; i < r; ++i) {
      const double* x_row = x + i * n + j0;
      double* s_row = s + i * kW;
      std::copy(x_row, x_row + width, s_row);
      std::fill(s_row + width, s_row + kW, 0.0);
    }
    MultiplyBlock(h_packed, r, s, y);
    double value_lane[kW] = {}, magnitude_lane[kW] = {};
    for (Index i = 0; i < r; ++i) {
      const double* t_row = t + i * n + j0;
      const double* s_row = s + i * kW;
      const double* y_row = y + i * kW;
      for (Index c = 0; c < width; ++c) {
        const double quadratic = 0.5 * s_row[c] * y_row[c];
        const double linear = t_row[c] * s_row[c];
        value_lane[c] += quadratic - linear;
        magnitude_lane[c] += std::abs(quadratic) + std::abs(linear);
      }
    }
    double value_block = 0.0, magnitude_block = 0.0;
    for (Index c = 0; c < kW; ++c) {
      value_block += value_lane[c];
      magnitude_block += magnitude_lane[c];
    }
    value_sum += value_block;
    magnitude_sum += magnitude_block;
  }
  *objective = value_sum;
  *magnitude = magnitude_sum;
}

}  // namespace

StatusOr<QuadraticApgResult> QuadraticApg(const Matrix& h, const Matrix& t,
                                          double radius, Matrix* x,
                                          const QuadraticApgOptions& options,
                                          QuadraticApgWorkspace* workspace) {
  if (x == nullptr) {
    return Status::InvalidArgument("QuadraticApg: null iterate");
  }
  if (!(radius >= 0.0)) {
    return Status::InvalidArgument(
        "QuadraticApg: the L1 radius must be >= 0 (+inf: unconstrained)");
  }
  if (h.rows() != h.cols() || h.rows() != t.rows()) {
    return Status::InvalidArgument(
        StrFormat("QuadraticApg: H is %td x %td, T is %td x %td", h.rows(),
                  h.cols(), t.rows(), t.cols()));
  }
  if (x->rows() != t.rows() || x->cols() != t.cols()) {
    return Status::InvalidArgument("QuadraticApg: bad initial shape");
  }

  QuadraticApgWorkspace local;
  QuadraticApgWorkspace& ws = workspace != nullptr ? *workspace : local;
  const Index r = t.rows();
  const Index n = t.cols();
  const Index padded = PaddedRows(r);
  PackH(h, &ws.h_packed);
  if (ws.s_block.size() < static_cast<std::size_t>(r * kW)) {
    ws.s_block.resize(static_cast<std::size_t>(r * kW));
  }
  if (ws.y_block.size() < static_cast<std::size_t>(padded * kW)) {
    ws.y_block.resize(static_cast<std::size_t>(padded * kW));
  }
  const double* h_packed = ws.h_packed.data();
  double* s = ws.s_block.data();
  double* y = ws.y_block.data();

  QuadraticApgResult result;
  // Safety margin on λmax covers the power iteration's underestimate.
  const double lipschitz =
      1.02 * EstimateLargestEigenvalue(h, options.power_iterations, ws);
  result.lipschitz = lipschitz;

  internal::ProjectColumns(x->data(), r, n, radius, s);
  if (lipschitz <= 0.0) {
    // H ≈ 0: the objective is linear; the minimizer over a bounded set is
    // the projection of an arbitrarily long step along +T.
    x->Axpy(1e6 / std::max(1e-12, linalg::MaxAbs(t)), t);
    internal::ProjectColumns(x->data(), r, n, radius, s);
    result.converged = true;
  } else {
    const double step = 1.0 / lipschitz;
    ws.x_prev = *x;
    Matrix* current = x;
    Matrix* previous = &ws.x_prev;
    double delta_prev = 0.0;
    double delta = 1.0;
    for (int it = 0; it < options.max_iterations; ++it) {
      const double alpha = (delta_prev - 1.0) / delta;
      double movement = 0.0, x_norm = 0.0;
      ApgStep(h_packed, t.data(), current->data(), previous->data(), r, n,
              alpha, step, radius, s, y, &movement, &x_norm);
      // X_next now sits in the X_prev buffer: rotate.
      std::swap(current, previous);
      delta_prev = delta;
      delta = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * delta * delta));
      result.iterations = it + 1;
      if (std::sqrt(movement) <=
          options.tolerance * std::max(1.0, std::sqrt(x_norm))) {
        result.converged = true;
        break;
      }
    }
    if (current != x) std::swap(*x, ws.x_prev);
  }
  EvaluateObjective(h_packed, t.data(), x->data(), r, n, s, y,
                    &result.objective, &result.objective_magnitude);
  return result;
}

}  // namespace lrm::opt
