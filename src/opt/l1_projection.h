// Euclidean projection onto the L1 ball — the projection step of paper
// Algorithm 2 / Formula (11). Each column of L is projected onto
// {v : ‖v‖₁ ≤ radius}.
//
// The production path is one column-block kernel (opt/l1_column_block.h),
// shared by ProjectColumnsOntoL1Ball and the fused L-step
// (opt/quadratic_apg.cc). It takes 64 columns at a time, stored as contiguous
// rows, and finds each column's soft threshold θ by the Michelot
// active-set iteration (Condat 2016, "Fast projection onto the simplex and
// the ℓ1 ball", §2):
//
//     θ ← (Σ_{|v_i| > θ} |v_i| − radius) / #{i : |v_i| > θ},
//
// started from the full set and vectorized across the block's columns: no
// gather, no sort. In exact arithmetic θ only grows and the active set
// only shrinks, so a column settles within `rows` passes; the active-set
// sums are compensated so θ does not depend on the row order (see
// l1_projection.cc for why the ALM needs that).
//
// ProjectOntoL1Ball is the sort-based projection of Duchi, Shalev-Shwartz,
// Singer and Chandra (ICML 2008), kept as the test oracle for the kernel.

#ifndef LRM_OPT_L1_PROJECTION_H_
#define LRM_OPT_L1_PROJECTION_H_

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace lrm::opt {

/// \brief Projects `v` in place onto {x : ‖x‖₁ ≤ radius} by sorting the
/// magnitudes, in O(d log d). The test oracle for the block kernel.
///
/// If v is already inside the ball it is returned unchanged (the projection
/// is the identity there). radius must be ≥ 0; radius = 0 zeroes the vector.
void ProjectOntoL1Ball(linalg::Vector& v, double radius);

/// \brief Projects every column of `m` onto the L1 ball of the given radius
/// — Formula (11) decouples into independent per-column problems. radius
/// must be ≥ 0; +∞ leaves `m` unchanged. Returns the largest number of row
/// passes any column block took (1 norm pass + the θ passes; 0 when radius
/// is 0 or +∞), which is at most rows + 1.
int ProjectColumnsOntoL1Ball(linalg::Matrix& m, double radius);

}  // namespace lrm::opt

#endif  // LRM_OPT_L1_PROJECTION_H_
