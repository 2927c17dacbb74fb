// Runtime ISA selection for the hot numeric kernels (internal header).
//
// LRM_KERNEL_TARGET_CLONES compiles a function for newer vector ISAs and
// lets the dynamic loader pick the best clone for the running CPU; the
// "default" clone keeps the binary runnable on any x86-64, and the macro
// collapses to nothing on other targets and compilers. Used by the packed
// GEMM micro-kernel (kernels/gemm.cc) and the fused L-step block kernels
// (opt/quadratic_apg.cc, opt/l1_projection.cc).
//
// Disabled under ThreadSanitizer: the glibc IFUNC resolver behind
// target_clones runs before the TSan runtime has mapped its shadow memory,
// which segfaults at process start.

#ifndef LRM_LINALG_KERNELS_TARGET_CLONES_H_
#define LRM_LINALG_KERNELS_TARGET_CLONES_H_

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define LRM_KERNEL_TARGET_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define LRM_KERNEL_TARGET_CLONES
#endif

#endif  // LRM_LINALG_KERNELS_TARGET_CLONES_H_
