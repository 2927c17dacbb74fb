#include "opt/l1_projection.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "base/check.h"
#include "linalg/kernels/target_clones.h"
#include "opt/l1_column_block.h"

namespace lrm::opt {

using linalg::Index;

void ProjectOntoL1Ball(linalg::Vector& v, double radius) {
  LRM_CHECK_GE(radius, 0.0);
  const Index d = v.size();
  if (d == 0) return;
  if (radius == 0.0) {
    std::fill(v.data(), v.data() + d, 0.0);
    return;
  }
  double l1 = 0.0;
  for (Index i = 0; i < d; ++i) l1 += std::abs(v[i]);
  if (l1 <= radius) return;  // already feasible

  // Duchi et al.: find the soft threshold theta from the sorted magnitudes.
  std::vector<double> sorted(static_cast<std::size_t>(d));
  for (Index i = 0; i < d; ++i) {
    sorted[static_cast<std::size_t>(i)] = std::abs(v[i]);
  }
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double cumulative = 0.0;
  double theta = 0.0;
  for (std::size_t j = 0; j < sorted.size(); ++j) {
    cumulative += sorted[j];
    const double candidate =
        (cumulative - radius) / static_cast<double>(j + 1);
    if (sorted[j] - candidate > 0.0) {
      theta = candidate;
    } else {
      break;
    }
  }
  for (Index i = 0; i < d; ++i) {
    const double magnitude = std::abs(v[i]) - theta;
    v[i] = magnitude > 0.0 ? std::copysign(magnitude, v[i]) : 0.0;
  }
}

namespace internal {
LRM_KERNEL_TARGET_CLONES
int ProjectColumnBlock(double* block, Index rows, double radius) {
  constexpr Index kW = kL1ColumnBlock;
  if (rows == 0 || radius == std::numeric_limits<double>::infinity()) {
    return 0;
  }
  if (radius == 0.0) {
    std::fill(block, block + rows * kW, 0.0);
    return 0;
  }

  // Pass 1: column L1 norms, summed in row order exactly as
  // ProjectOntoL1Ball sums them, so both decide "outside the ball" alike.
  // A column outside starts Michelot's iteration from the full active set
  // at θ = (‖v‖₁ − radius)/rows; a column inside is left as it is.
  double l1[kW] = {};
  for (Index i = 0; i < rows; ++i) {
    const double* row = block + i * kW;
    for (Index c = 0; c < kW; ++c) l1[c] += std::abs(row[c]);
  }
  // Per-column state as doubles (outside is 1.0/0.0) so every lane loop
  // below vectorizes with one vector type.
  const double full = static_cast<double>(rows);
  double theta[kW] = {}, count[kW] = {}, outside[kW] = {};
  double any_outside = 0.0;
  for (Index c = 0; c < kW; ++c) {
    outside[c] = l1[c] > radius ? 1.0 : 0.0;
    theta[c] = l1[c] > radius ? (l1[c] - radius) / full : 0.0;
    count[c] = full;
    any_outside += outside[c];
  }
  int passes = 1;
  if (any_outside == 0.0) return passes;

  // θ passes until no column's active set changes. The active-set sums are
  // compensated (TwoSum), so θ = (Σ − radius)/count is within an ulp of the
  // exact value whatever the row order; like the sorted cumulative sum of
  // ProjectOntoL1Ball, it comes out ≤ 0 for a column that lies on the
  // sphere up to rounding, and the zeros of such a column then take the
  // tiny value −θ. The ALM depends on both: with a plain running sum, or
  // with θ clamped from below, 34 of 40 WRange 40×80 solves stalled in the
  // β cycle and ended unconverged, against none with either this kernel or
  // the sort. In exact arithmetic each changing pass shrinks the active
  // set, so `rows` passes always suffice; the cap only bounds the loop
  // under rounding.
  for (double changed = 1.0; changed != 0.0 && passes <= rows;) {
    double sum[kW] = {}, carry[kW] = {}, kept[kW] = {};
    for (Index i = 0; i < rows; ++i) {
      const double* row = block + i * kW;
      for (Index c = 0; c < kW; ++c) {
        const double a = std::abs(row[c]);
        const double active = a > theta[c] ? 1.0 : 0.0;
        const double x = active * a;
        // sum + carry += x (TwoSum).
        const double t = sum[c] + x;
        const double z = t - sum[c];
        carry[c] += (sum[c] - (t - z)) + (x - z);
        sum[c] = t;
        kept[c] += active;
      }
    }
    ++passes;
    changed = 0.0;
    for (Index c = 0; c < kW; ++c) {
      const double moved = kept[c] != count[c] ? outside[c] : 0.0;
      const double next =
          (sum[c] + carry[c] - radius) / std::max(kept[c], 1.0);
      changed += moved;
      theta[c] = moved * kept[c] != 0.0 ? next : theta[c];
      count[c] = moved != 0.0 ? kept[c] : count[c];
    }
  }

  for (Index i = 0; i < rows; ++i) {
    double* row = block + i * kW;
    for (Index c = 0; c < kW; ++c) {
      const double v = row[c];
      const double magnitude = std::abs(v) - theta[c];
      const double shrunk =
          magnitude > 0.0 ? std::copysign(magnitude, v) : 0.0;
      row[c] = outside[c] != 0.0 ? shrunk : v;
    }
  }
  return passes;
}

int ProjectColumns(double* m, Index rows, Index cols, double radius,
                   double* scratch) {
  LRM_CHECK_GE(radius, 0.0);
  constexpr Index kW = kL1ColumnBlock;
  if (radius == std::numeric_limits<double>::infinity()) return 0;
  int passes = 0;
  for (Index j0 = 0; j0 < cols; j0 += kW) {
    const Index width = std::min(kW, cols - j0);
    for (Index i = 0; i < rows; ++i) {
      const double* src = m + i * cols + j0;
      double* dst = scratch + i * kW;
      std::copy(src, src + width, dst);
      std::fill(dst + width, dst + kW, 0.0);
    }
    passes = std::max(passes, ProjectColumnBlock(scratch, rows, radius));
    for (Index i = 0; i < rows; ++i) {
      const double* src = scratch + i * kW;
      std::copy(src, src + width, m + i * cols + j0);
    }
  }
  return passes;
}

}  // namespace internal

int ProjectColumnsOntoL1Ball(linalg::Matrix& m, double radius) {
  std::vector<double> scratch(
      static_cast<std::size_t>(m.rows() * internal::kL1ColumnBlock));
  return internal::ProjectColumns(m.data(), m.rows(), m.cols(), radius,
                                  scratch.data());
}

}  // namespace lrm::opt
