// google-benchmark microbenchmarks of the linear-algebra substrate — the
// kernels that dominate the decomposition and the matrix mechanism.

#include <benchmark/benchmark.h>

#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/kernels/kernels.h"
#include "linalg/matrix_view.h"
#include "linalg/qr.h"
#include "linalg/random_matrix.h"
#include "linalg/svd.h"
#include "rng/engine.h"

namespace {

using lrm::linalg::Index;
using lrm::linalg::Matrix;
namespace kernels = lrm::linalg::kernels;

Matrix MakeRandom(Index rows, Index cols, std::uint64_t seed) {
  lrm::rng::Engine engine(seed);
  return lrm::linalg::RandomGaussianMatrix(engine, rows, cols);
}

Matrix MakeSpd(Index n, std::uint64_t seed) {
  const Matrix g = MakeRandom(n, n, seed);
  Matrix a = lrm::linalg::GramAtA(g);
  for (Index i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

void BM_Gemm(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeRandom(n, n, 1);
  const Matrix b = MakeRandom(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// The three kernel tiers at one shape, for the perf-regression gate: the
// scalar reference (the pre-kernel-layer seed behavior), the blocked kernel
// pinned to one thread (blocking/tiling win alone), and the full dispatch
// with threads enabled.
void BM_GemmReference(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeRandom(n, n, 1);
  const Matrix b = MakeRandom(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    kernels::GemmReference(kernels::Op::kNone, kernels::Op::kNone, n, n, n,
                           1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmReference)->Arg(256)->Arg(512);

void BM_GemmBlockedSingleThread(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeRandom(n, n, 1);
  const Matrix b = MakeRandom(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    kernels::GemmBlocked(kernels::Op::kNone, kernels::Op::kNone, n, n, n, 1.0,
                         a.data(), n, b.data(), n, 0.0, c.data(), n,
                         /*threads=*/1);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmBlockedSingleThread)->Arg(256)->Arg(512);

void BM_GemmBlockedThreaded(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeRandom(n, n, 1);
  const Matrix b = MakeRandom(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    kernels::GemmBlocked(kernels::Op::kNone, kernels::Op::kNone, n, n, n, 1.0,
                         a.data(), n, b.data(), n, 0.0, c.data(), n,
                         kernels::GemmThreads());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmBlockedThreaded)->Arg(256)->Arg(512);

// Allocation-free product via the workspace API vs. the allocating
// operator* — the per-iteration pattern of the ALM loops.
void BM_MultiplyInto(benchmark::State& state) {
  const Index r = state.range(0);
  const Index n = 8 * r;
  const Matrix h = MakeSpd(r, 3);
  const Matrix l = MakeRandom(r, n, 4);
  Matrix out;
  for (auto _ : state) {
    lrm::linalg::MultiplyInto(h, l, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * r * r * n);
}
BENCHMARK(BM_MultiplyInto)->Arg(32)->Arg(77)->Arg(154);

void BM_GemmAtB_RectangularLrmShape(benchmark::State& state) {
  // The decomposition's hot product: H·L with H r×r, L r×n.
  const Index r = state.range(0);
  const Index n = 8 * r;
  const Matrix h = MakeSpd(r, 3);
  const Matrix l = MakeRandom(r, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h * l);
  }
  state.SetItemsProcessed(state.iterations() * r * r * n);
}
BENCHMARK(BM_GemmAtB_RectangularLrmShape)->Arg(32)->Arg(77)->Arg(154);

void BM_CholeskySolve(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeSpd(n, 5);
  const Matrix b = MakeRandom(n, n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::SolveSpd(a, b));
  }
}
BENCHMARK(BM_CholeskySolve)->Arg(64)->Arg(128)->Arg(256);

// --- Factorization tier: blocked (auto dispatch) vs. forced-scalar -------
//
// The *Scalar variants pin kernels::SetFactorImpl(kReference) around the
// loop; the unsuffixed variants run the production dispatch. The stored
// baselines carry both so compare_benchmarks.py can gate the RATIO
// (hardware-independent) on CI runners whose absolute timings differ from
// the baseline box.

void BM_CholeskyFactor(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeSpd(n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::CholeskyFactor(a));
  }
}
BENCHMARK(BM_CholeskyFactor)->Arg(256)->Arg(512)->Arg(1024);

void BM_CholeskyFactorScalar(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeSpd(n, 5);
  kernels::SetFactorImpl(kernels::FactorImpl::kReference);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::CholeskyFactor(a));
  }
  kernels::SetFactorImpl(kernels::FactorImpl::kAuto);
}
BENCHMARK(BM_CholeskyFactorScalar)->Arg(256)->Arg(512);

// Square QR through the production dispatch (blocked at these sizes).
void BM_QrFactor(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeRandom(n, n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::HouseholderQr(a));
  }
}
BENCHMARK(BM_QrFactor)->Arg(256)->Arg(512)->Arg(1024);

void BM_QrFactorScalar(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeRandom(n, n, 12);
  kernels::SetFactorImpl(kernels::FactorImpl::kReference);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::HouseholderQr(a));
  }
  kernels::SetFactorImpl(kernels::FactorImpl::kAuto);
}
BENCHMARK(BM_QrFactorScalar)->Arg(256);

// The decomposition-init hot shape (tall range-finder orthonormalization)
// at the acceptance-criterion size 1024×256.
void BM_OrthonormalizeColumns1024x256(benchmark::State& state) {
  const Matrix a = MakeRandom(1024, 256, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::OrthonormalizeColumns(a));
  }
}
BENCHMARK(BM_OrthonormalizeColumns1024x256);

void BM_OrthonormalizeColumns1024x256Scalar(benchmark::State& state) {
  const Matrix a = MakeRandom(1024, 256, 13);
  kernels::SetFactorImpl(kernels::FactorImpl::kReference);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::OrthonormalizeColumns(a));
  }
  kernels::SetFactorImpl(kernels::FactorImpl::kAuto);
}
BENCHMARK(BM_OrthonormalizeColumns1024x256Scalar);

// Single-thread twin of the orthonormalization above — the threaded/single
// ratio is gated relatively (min_cores = 8) like the eigen twins below.
void BM_OrthonormalizeColumns1024x256SingleThread(benchmark::State& state) {
  const Matrix a = MakeRandom(1024, 256, 13);
  kernels::SetGemmThreads(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::OrthonormalizeColumns(a));
  }
  kernels::SetGemmThreads(0);
}
BENCHMARK(BM_OrthonormalizeColumns1024x256SingleThread);

void BM_SymmetricEigen(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeSpd(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::SymmetricEigen(a));
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_SymmetricEigenScalar(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeSpd(n, 7);
  kernels::SetFactorImpl(kernels::FactorImpl::kReference);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::SymmetricEigen(a));
  }
  kernels::SetFactorImpl(kernels::FactorImpl::kAuto);
}
BENCHMARK(BM_SymmetricEigenScalar)->Arg(256);

// The tridiagonal-solver swap in isolation: both variants run the blocked
// tridiagonalization, so Dc vs Ql measures divide-and-conquer against the
// QL iteration alone. The baseline's relative gate holds Dc/1024 at ≤ 0.5×
// Ql/1024 (the PR's acceptance criterion); 2048/4096 document the scaling
// QL never reached and back the stress tier's sizes.
void BM_SymmetricEigenDc(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeSpd(n, 7);
  kernels::SetFactorImpl(kernels::FactorImpl::kDc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::SymmetricEigen(a));
  }
  kernels::SetFactorImpl(kernels::FactorImpl::kAuto);
}
BENCHMARK(BM_SymmetricEigenDc)->Arg(1024)->Arg(2048)->Arg(4096);

// Forced-single-thread twin of BM_SymmetricEigenDc: SetGemmThreads(1)
// around the loop disables the shared task runtime (parallel Cuppen
// subtrees, chunked secular solves, threaded GEMM/SymvLower underneath).
// The stored baseline holds the threaded/single ratio as a relative gate
// with min_cores = 8, so multi-core CI runners enforce the parallel
// speedup while single-core boxes report-and-skip it.
void BM_SymmetricEigenDcSingleThread(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeSpd(n, 7);
  kernels::SetFactorImpl(kernels::FactorImpl::kDc);
  kernels::SetGemmThreads(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::SymmetricEigen(a));
  }
  kernels::SetGemmThreads(0);
  kernels::SetFactorImpl(kernels::FactorImpl::kAuto);
}
BENCHMARK(BM_SymmetricEigenDcSingleThread)->Arg(1024)->Arg(2048);

// The partial-spectrum path at the rank-search shape k = n/8: blocked
// tridiagonalization + Sturm bisection + cluster inverse iteration +
// compact-WY back-transformation, never forming Q or the full eigenbasis.
// The baseline's relative gate holds partial/2048 at ≤ 0.6× Dc/2048. Both
// arms pay the same latrd reduction, and on the 1-core baseline box it is
// ~90% of the partial arm (3.4 s of 3.7 s; the subset stages are ~0.3 s vs
// ~3.8 s for the D&C tridiagonal solve they replace) — so the end-to-end
// ratio floor is ~0.47 and the gate needs headroom for CPU-steal noise on
// top of it, not a tighter bound the shared reduction can never meet.
void BM_PartialSymmetricEigen(benchmark::State& state) {
  const Index n = state.range(0);
  const Index k = n / 8;
  const Matrix a = MakeSpd(n, 7);
  kernels::SetFactorImpl(kernels::FactorImpl::kPartial);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::PartialSymmetricEigen(a, k));
  }
  kernels::SetFactorImpl(kernels::FactorImpl::kAuto);
}
BENCHMARK(BM_PartialSymmetricEigen)->Arg(1024)->Arg(2048);

void BM_SymmetricEigenQl(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeSpd(n, 7);
  kernels::SetFactorImpl(kernels::FactorImpl::kBlocked);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::SymmetricEigen(a));
  }
  kernels::SetFactorImpl(kernels::FactorImpl::kAuto);
}
BENCHMARK(BM_SymmetricEigenQl)->Arg(1024);

void BM_JacobiSvd(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeRandom(2 * n, n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::JacobiSvd(a));
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(32)->Arg(64)->Arg(128);

// From n = 512 the Gram eigensolve rides the dc dispatch.
void BM_GramSvd(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeRandom(2 * n, n, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::GramSvd(a));
  }
}
BENCHMARK(BM_GramSvd)->Arg(32)->Arg(64)->Arg(128)->Arg(512)->Arg(1024);

void BM_HouseholderQr(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = MakeRandom(4 * n, n, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lrm::linalg::HouseholderQr(a));
  }
}
BENCHMARK(BM_HouseholderQr)->Arg(32)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
