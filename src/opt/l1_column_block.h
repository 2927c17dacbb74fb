// The column-block L1 projection kernel behind ProjectColumnsOntoL1Ball
// and the fused L-step of QuadraticApg (internal header; see
// opt/l1_projection.h for the algorithm).

#ifndef LRM_OPT_L1_COLUMN_BLOCK_H_
#define LRM_OPT_L1_COLUMN_BLOCK_H_

#include "linalg/matrix.h"

namespace lrm::opt::internal {

/// Columns per block of the projection kernel and the fused L-step.
inline constexpr linalg::Index kL1ColumnBlock = 64;

/// \brief Projects the kL1ColumnBlock columns of the rows×kL1ColumnBlock
/// block at `block` (row-major, row stride kL1ColumnBlock) onto the L1 ball
/// of `radius` in place and returns its row passes (1 norm pass + the θ
/// passes, at most rows + 1; 0 when radius is 0 or +∞). Columns a caller
/// does not use must hold finite values (zeros project to zeros).
int ProjectColumnBlock(double* block, linalg::Index rows, double radius);

/// \brief Projects the columns of the row-major rows×cols array `m`,
/// staging each block in `scratch` (capacity ≥ rows·kL1ColumnBlock), and
/// returns the most row passes any block took.
int ProjectColumns(double* m, linalg::Index rows, linalg::Index cols,
                   double radius, double* scratch);

}  // namespace lrm::opt::internal

#endif  // LRM_OPT_L1_COLUMN_BLOCK_H_
