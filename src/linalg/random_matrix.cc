#include "linalg/random_matrix.h"

#include "rng/distributions.h"

namespace lrm::linalg {

Matrix RandomGaussianMatrix(rng::Engine& engine, Index rows, Index cols) {
  Matrix result(rows, cols);
  double* p = result.data();
  for (Index i = 0; i < result.size(); ++i) {
    p[i] = rng::SampleGaussian(engine);
  }
  return result;
}

Vector RandomGaussianVector(rng::Engine& engine, Index n) {
  Vector result(n);
  for (Index i = 0; i < n; ++i) result[i] = rng::SampleGaussian(engine);
  return result;
}

Vector RandomLaplaceVector(rng::Engine& engine, Index n, double scale) {
  Vector result(n);
  for (Index i = 0; i < n; ++i) {
    result[i] = rng::SampleLaplace(engine, scale);
  }
  return result;
}

Matrix RandomUniformMatrix(rng::Engine& engine, Index rows, Index cols,
                           double lo, double hi) {
  Matrix result(rows, cols);
  double* p = result.data();
  for (Index i = 0; i < result.size(); ++i) {
    p[i] = rng::SampleUniform(engine, lo, hi);
  }
  return result;
}

}  // namespace lrm::linalg
