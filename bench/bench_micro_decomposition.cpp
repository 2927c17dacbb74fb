// google-benchmark microbenchmarks of the LRM workload decomposition and
// its building blocks across problem shapes.

#include <benchmark/benchmark.h>

#include "core/decomposition.h"
#include "opt/l1_projection.h"
#include "opt/quadratic_apg.h"
#include "linalg/random_matrix.h"
#include "rng/engine.h"
#include "workload/generators.h"

namespace {

using lrm::linalg::Index;
using lrm::linalg::Matrix;

lrm::core::DecompositionOptions BenchOptions() {
  lrm::core::DecompositionOptions options;
  options.gamma = 1.0;
  options.max_inner_iterations = 3;
  options.l_max_iterations = 25;
  options.l_tolerance = 1e-6;
  options.max_outer_iterations = 120;
  options.polish_patience = 5;
  return options;
}

void BM_DecomposeWRelated(benchmark::State& state) {
  const Index m = state.range(0);
  const Index n = 4 * m;
  const Index s = std::max<Index>(1, m / 5);
  const auto workload = lrm::workload::GenerateWRelated(m, n, s, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lrm::core::DecomposeWorkload(workload->matrix(), BenchOptions()));
  }
}
BENCHMARK(BM_DecomposeWRelated)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_DecomposeWRange(benchmark::State& state) {
  const Index m = state.range(0);
  const Index n = 4 * m;
  const auto workload = lrm::workload::GenerateWRange(m, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lrm::core::DecomposeWorkload(workload->matrix(), BenchOptions()));
  }
}
BENCHMARK(BM_DecomposeWRange)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Cold-init cost at figure scale (n = 2048): automatic rank, so the init
// is PartialGramSvdWithRank on the 512×512 Gram spectrum (Sturm-count rank
// search plus the top ⌈1.2·rank⌉ triplets). One outer/inner iteration
// isolates init + a single ALM sweep.
void BM_DecompositionInit2048(benchmark::State& state) {
  const Index m = 512, n = 2048, s = 64;
  const auto workload = lrm::workload::GenerateWRelated(m, n, s, 5);
  lrm::core::DecompositionOptions options = BenchOptions();
  options.max_outer_iterations = 1;
  options.max_inner_iterations = 1;
  options.l_max_iterations = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lrm::core::DecomposeWorkload(workload->matrix(), options));
  }
}
BENCHMARK(BM_DecompositionInit2048)->Unit(benchmark::kMillisecond);

// The same init at a paper-scale domain (n = 4096): PartialGramSvdWithRank
// on the 1024² Gram matrix.
void BM_DecompositionInit4096_Partial(benchmark::State& state) {
  const Index m = 1024, n = 4096, s = 128;
  const auto workload = lrm::workload::GenerateWRelated(m, n, s, 5);
  lrm::core::DecompositionOptions options = BenchOptions();
  options.max_outer_iterations = 1;
  options.max_inner_iterations = 1;
  options.l_max_iterations = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lrm::core::DecomposeWorkload(workload->matrix(), options));
  }
}
BENCHMARK(BM_DecompositionInit4096_Partial)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);  // one init pass is the measurement

void BM_L1ColumnProjection(benchmark::State& state) {
  const Index r = state.range(0);
  const Index n = 8 * r;
  lrm::rng::Engine engine(3);
  const Matrix l = lrm::linalg::RandomGaussianMatrix(engine, r, n);
  for (auto _ : state) {
    Matrix work = l;
    lrm::opt::ProjectColumnsOntoL1Ball(work, 1.0);
    benchmark::DoNotOptimize(work);
  }
}
BENCHMARK(BM_L1ColumnProjection)->Arg(32)->Arg(77)->Arg(154);

void BM_QuadraticApgSolve(benchmark::State& state) {
  // One L-subproblem at the shape the figure benches hit hardest.
  const Index r = state.range(0);
  const Index n = 8 * r;
  lrm::rng::Engine engine(4);
  const Matrix g = lrm::linalg::RandomGaussianMatrix(engine, r, r);
  Matrix h = lrm::linalg::GramAtA(g);
  for (Index i = 0; i < r; ++i) h(i, i) += 1.0;
  const Matrix t = lrm::linalg::RandomGaussianMatrix(engine, r, n);
  const Matrix l0(r, n);
  lrm::opt::QuadraticApgOptions options;
  options.max_iterations = 25;
  lrm::opt::QuadraticApgWorkspace workspace;
  Matrix l = l0;
  for (auto _ : state) {
    l = l0;
    benchmark::DoNotOptimize(
        lrm::opt::QuadraticApg(h, t, 1.0, &l, options, &workspace));
  }
}
BENCHMARK(BM_QuadraticApgSolve)->Arg(32)->Arg(77)->Arg(154)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
