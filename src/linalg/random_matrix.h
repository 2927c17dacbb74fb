// Random matrix/vector generation on top of rng::Engine. Lives in linalg
// (not rng) so the rng layer stays free of matrix dependencies.

#ifndef LRM_LINALG_RANDOM_MATRIX_H_
#define LRM_LINALG_RANDOM_MATRIX_H_

#include "linalg/matrix.h"
#include "rng/engine.h"

namespace lrm::linalg {

/// \brief rows×cols matrix of i.i.d. standard normal entries.
Matrix RandomGaussianMatrix(rng::Engine& engine, Index rows, Index cols);

/// \brief Vector of i.i.d. standard normal entries.
Vector RandomGaussianVector(rng::Engine& engine, Index n);

/// \brief Vector of i.i.d. Laplace(scale) entries (the Laplace-mechanism
/// noise vector Lap(Δ/ε)^n from paper Eq. 3).
Vector RandomLaplaceVector(rng::Engine& engine, Index n, double scale);

/// \brief rows×cols matrix with i.i.d. uniform entries in [lo, hi).
Matrix RandomUniformMatrix(rng::Engine& engine, Index rows, Index cols,
                           double lo, double hi);

}  // namespace lrm::linalg

#endif  // LRM_LINALG_RANDOM_MATRIX_H_
