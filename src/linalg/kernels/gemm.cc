// Cache-blocked, register-tiled, optionally multithreaded GEMM.
//
// Structure (BLIS-style): the operands are packed into contiguous panels —
// op(A) into column-major micro-panels of kMr rows, op(B) into row-major
// micro-panels of kNr columns — so one micro-kernel serves all four
// transpose variants and arbitrary leading dimensions. Blocking targets
//   packed B block (kKc×kNc ≈ 2 MB)  → L3/L2,
//   packed A block (kMc×kKc ≈ 192 KB) → L2,
//   one B micro-panel (kKc×kNr = 16 KB) → L1.
// Threading rides the shared kernels runtime (parallel.h): C is cut into
// row tasks whose boundaries depend only on m, and a dot product is never
// split across tasks, so the result is bitwise independent of the thread
// count and of which pool worker ran which strip.

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "base/check.h"
#include "linalg/kernels/kernels.h"
#include "linalg/kernels/parallel.h"
#include "linalg/kernels/target_clones.h"

namespace lrm::linalg::kernels {

namespace {

constexpr Index kMr = 4;    // micro-tile rows
constexpr Index kNr = 8;    // micro-tile columns
constexpr Index kMc = 96;   // rows of a packed A block
constexpr Index kKc = 256;  // shared (k) depth of packed blocks
constexpr Index kNc = 1024;  // columns of a packed B block

inline double OpAt(const double* a, Index lda, Op op, Index i, Index k) {
  return op == Op::kNone ? a[i * lda + k] : a[k * lda + i];
}

// Packs rows [i0, i0+mc) × depth [p0, p0+kc) of op(A) into micro-panels:
// panel p holds rows [p·kMr, (p+1)·kMr), entry (r, kk) at [kk·kMr + r].
// Rows past mc are zero-padded so the micro-kernel never branches.
void PackA(Op op, const double* a, Index lda, Index i0, Index p0, Index mc,
           Index kc, double* buffer) {
  for (Index panel = 0; panel * kMr < mc; ++panel) {
    double* dst = buffer + panel * kMr * kc;
    const Index row_base = i0 + panel * kMr;
    const Index live = std::min<Index>(kMr, mc - panel * kMr);
    for (Index kk = 0; kk < kc; ++kk) {
      for (Index r = 0; r < live; ++r) {
        dst[kk * kMr + r] = OpAt(a, lda, op, row_base + r, p0 + kk);
      }
      for (Index r = live; r < kMr; ++r) dst[kk * kMr + r] = 0.0;
    }
  }
}

// Packs depth [p0, p0+kc) × columns [j0, j0+nc) of op(B) into micro-panels:
// panel q holds columns [q·kNr, (q+1)·kNr), entry (kk, c) at [kk·kNr + c],
// zero-padded past nc.
void PackB(Op op, const double* b, Index ldb, Index p0, Index j0, Index kc,
           Index nc, double* buffer) {
  for (Index panel = 0; panel * kNr < nc; ++panel) {
    double* dst = buffer + panel * kNr * kc;
    const Index col_base = j0 + panel * kNr;
    const Index live = std::min<Index>(kNr, nc - panel * kNr);
    if (op == Op::kNone && live == kNr) {
      for (Index kk = 0; kk < kc; ++kk) {
        const double* src = b + (p0 + kk) * ldb + col_base;
        for (Index c = 0; c < kNr; ++c) dst[kk * kNr + c] = src[c];
      }
      continue;
    }
    for (Index kk = 0; kk < kc; ++kk) {
      for (Index c = 0; c < live; ++c) {
        dst[kk * kNr + c] = OpAt(b, ldb, op, p0 + kk, col_base + c);
      }
      for (Index c = live; c < kNr; ++c) dst[kk * kNr + c] = 0.0;
    }
  }
}

// One blocked GEMM on a row strip of C, single-threaded. Packing buffers are
// caller-provided so worker threads never share scratch.
LRM_KERNEL_TARGET_CLONES
void BlockedStrip(Op op_a, Op op_b, Index m, Index n, Index k, double alpha,
                  const double* a, Index lda, const double* b, Index ldb,
                  double beta, double* c, Index ldc, double* packed_a,
                  double* packed_b) {
  for (Index i = 0; i < m; ++i) {
    double* c_row = c + i * ldc;
    if (beta == 0.0) {
      for (Index j = 0; j < n; ++j) c_row[j] = 0.0;
    } else if (beta != 1.0) {
      for (Index j = 0; j < n; ++j) c_row[j] *= beta;
    }
  }
  if (alpha == 0.0 || k == 0) return;

  for (Index jc = 0; jc < n; jc += kNc) {
    const Index nc = std::min(kNc, n - jc);
    for (Index pc = 0; pc < k; pc += kKc) {
      const Index kc = std::min(kKc, k - pc);
      PackB(op_b, b, ldb, pc, jc, kc, nc, packed_b);
      for (Index ic = 0; ic < m; ic += kMc) {
        const Index mc = std::min(kMc, m - ic);
        PackA(op_a, a, lda, ic, pc, mc, kc, packed_a);
        for (Index jr = 0; jr < nc; jr += kNr) {
          const double* b_panel = packed_b + (jr / kNr) * kNr * kc;
          const Index n_live = std::min<Index>(kNr, nc - jr);
          for (Index ir = 0; ir < mc; ir += kMr) {
            const double* a_panel = packed_a + (ir / kMr) * kMr * kc;
            const Index m_live = std::min<Index>(kMr, mc - ir);
            // Micro-kernel: kMr×kNr accumulators over the packed panels.
            double acc[kMr][kNr] = {};
            for (Index kk = 0; kk < kc; ++kk) {
              const double* pa = a_panel + kk * kMr;
              const double* pb = b_panel + kk * kNr;
              for (Index r = 0; r < kMr; ++r) {
                const double a_r = pa[r];
                for (Index cidx = 0; cidx < kNr; ++cidx) {
                  acc[r][cidx] += a_r * pb[cidx];
                }
              }
            }
            double* c_tile = c + (ic + ir) * ldc + jc + jr;
            for (Index r = 0; r < m_live; ++r) {
              for (Index cidx = 0; cidx < n_live; ++cidx) {
                c_tile[r * ldc + cidx] += alpha * acc[r][cidx];
              }
            }
          }
        }
      }
    }
  }
}

// Packing scratch, checked out of a process-wide free list so the ~2 MB
// buffers (and their faulted-in pages) survive across calls — hot loops
// issue thousands of GEMMs, and tasks land on whichever shared-pool worker
// is free, so thread-local storage would fragment the buffers per thread.
struct PackScratch {
  std::vector<double> a, b;
};

class ScratchPool {
 public:
  std::unique_ptr<PackScratch> Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return std::make_unique<PackScratch>();
    std::unique_ptr<PackScratch> scratch = std::move(free_.back());
    free_.pop_back();
    return scratch;
  }

  void Release(std::unique_ptr<PackScratch> scratch) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(scratch));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<PackScratch>> free_;
};

ScratchPool& GlobalScratchPool() {
  static ScratchPool* pool = new ScratchPool;  // leaked: outlive all threads
  return *pool;
}

// RAII checkout so early returns and exceptions hand the buffers back.
class ScratchLease {
 public:
  ScratchLease() : scratch_(GlobalScratchPool().Acquire()) {}
  ~ScratchLease() { GlobalScratchPool().Release(std::move(scratch_)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;
  PackScratch& get() { return *scratch_; }

 private:
  std::unique_ptr<PackScratch> scratch_;
};

void RunStrip(Op op_a, Op op_b, Index m, Index n, Index k, double alpha,
              const double* a, Index lda, const double* b, Index ldb,
              double beta, double* c, Index ldc) {
  ScratchLease lease;
  PackScratch& scratch = lease.get();
  const Index a_rows = ((std::min(kMc, m) + kMr - 1) / kMr) * kMr;
  const Index b_cols = ((std::min(kNc, n) + kNr - 1) / kNr) * kNr;
  const Index depth = std::min(kKc, std::max<Index>(k, 1));
  scratch.a.resize(static_cast<std::size_t>(a_rows * depth));
  scratch.b.resize(static_cast<std::size_t>(b_cols * depth));
  BlockedStrip(op_a, op_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
               scratch.a.data(), scratch.b.data());
}

}  // namespace

void GemmBlocked(Op op_a, Op op_b, Index m, Index n, Index k, double alpha,
                 const double* a, Index lda, const double* b, Index ldb,
                 double beta, double* c, Index ldc, int threads) {
  LRM_CHECK_GE(m, 0);
  LRM_CHECK_GE(n, 0);
  LRM_CHECK_GE(k, 0);
  if (m == 0 || n == 0) return;

  // Rows are cut into tasks of two packed-A blocks each — big enough to
  // amortize the B repack, small enough that the dynamic claim balances
  // uneven workers. The boundaries depend only on m (never on `threads`),
  // and each row of C is computed whole inside one task, so the bits are
  // identical for every thread count.
  constexpr Index kRowsPerTask = 2 * kMc;
  const Index num_tasks = (m + kRowsPerTask - 1) / kRowsPerTask;
  if (threads <= 1 || num_tasks <= 1) {
    RunStrip(op_a, op_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }

  // Row i of C reads row i of op(A): offset `a` by rows for kNone and by
  // columns for kTranspose.
  ParallelFor(num_tasks, threads, [&](Index task) {
    const Index row_begin = task * kRowsPerTask;
    const Index row_end = std::min(m, row_begin + kRowsPerTask);
    const double* a_strip =
        op_a == Op::kNone ? a + row_begin * lda : a + row_begin;
    RunStrip(op_a, op_b, row_end - row_begin, n, k, alpha, a_strip, lda, b,
             ldb, beta, c + row_begin * ldc, ldc);
  });
}

void Gemm(Op op_a, Op op_b, Index m, Index n, Index k, double alpha,
          const double* a, Index lda, const double* b, Index ldb, double beta,
          double* c, Index ldc) {
  if (m == 0 || n == 0) return;
  const GemmImpl impl = ActiveGemmImpl();
  if (impl == GemmImpl::kReference) {
    GemmReference(op_a, op_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  const Index flops = m * n * k;
  // Below ~32³ multiply-adds the packing traffic exceeds the compute; the
  // streaming reference loop wins there. Matrix–vector shapes (one output
  // row or column) are memory-bound and the packed micro-kernel pads them
  // to full 4×8 tiles, so the reference loop wins at any size.
  constexpr Index kBlockedThreshold = 32 * 32 * 32;
  if (impl == GemmImpl::kAuto && (flops < kBlockedThreshold || m == 1 ||
                                  n == 1)) {
    // Large matrix–vector products still parallelize: chunk the long
    // dimension and run the reference loop per chunk. Chunk boundaries
    // depend only on the shape, and every output element's k-accumulation
    // stays inside one chunk in the same order the monolithic call uses,
    // so the bits match the plain reference call exactly.
    constexpr Index kGemvThreadThreshold = Index{1} << 20;
    if (flops >= kGemvThreadThreshold) {
      const Index span_per_task =
          std::max<Index>(256, (Index{1} << 19) / std::max<Index>(k, 1));
      if (n == 1 && m > 1) {
        const Index num_tasks = (m + span_per_task - 1) / span_per_task;
        ParallelFor(num_tasks, [&](Index task) {
          const Index i0 = task * span_per_task;
          const Index rows = std::min(span_per_task, m - i0);
          const double* a_strip = op_a == Op::kNone ? a + i0 * lda : a + i0;
          GemmReference(op_a, op_b, rows, n, k, alpha, a_strip, lda, b, ldb,
                        beta, c + i0 * ldc, ldc);
        });
        return;
      }
      if (m == 1 && n > 1) {
        const Index num_tasks = (n + span_per_task - 1) / span_per_task;
        ParallelFor(num_tasks, [&](Index task) {
          const Index j0 = task * span_per_task;
          const Index cols = std::min(span_per_task, n - j0);
          const double* b_strip = op_b == Op::kNone ? b + j0 : b + j0 * ldb;
          GemmReference(op_a, op_b, m, cols, k, alpha, a, lda, b_strip, ldb,
                        beta, c + j0, ldc);
        });
        return;
      }
    }
    GemmReference(op_a, op_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  // Threads only pay off once each worker has a few MB of flops.
  constexpr Index kThreadThreshold = Index{1} << 21;
  const int threads = flops >= kThreadThreshold ? GemmThreads() : 1;
  GemmBlocked(op_a, op_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
              threads);
}

}  // namespace lrm::linalg::kernels
