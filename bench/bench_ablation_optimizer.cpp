// Ablation bench for the decomposition solver's β schedule: doubling every
// 10 outer iterations (paper Algorithm 1) vs every 5 vs adaptive only, and
// the stagnation rescue on vs off. The B step (closed form, paper Eq. 9)
// and the L step (exact-Lipschitz quadratic APG, Algorithm 2) have no
// alternative to ablate.
//
// Reports solution quality (expected noise error 2·Φ·Δ²/ε² at ε = 1) and
// decomposition time on a WRange and a WRelated workload.

#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include "base/string_util.h"
#include "base/timer.h"
#include "bench/bench_common.h"
#include "core/decomposition.h"

namespace {

using lrm::core::DecompositionOptions;

struct Variant {
  std::string name;
  DecompositionOptions options;
};

DecompositionOptions Base() {
  DecompositionOptions options;
  options.gamma = 0.1;
  options.max_inner_iterations = 3;
  options.l_max_iterations = 25;
  options.l_tolerance = 1e-6;
  options.max_outer_iterations = 120;
  options.polish_patience = 5;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrm;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader(args, "Ablation",
                     "decomposition solver design choices");

  std::vector<Variant> variants;
  variants.push_back({"beta doubles every 10 (default)", Base()});
  {
    Variant v{"beta doubles every 5", Base()};
    v.options.beta_update_every = 5;
    variants.push_back(v);
  }
  {
    Variant v{"beta adaptive only", Base()};
    v.options.beta_update_every = 1 << 20;  // scheduled growth disabled
    variants.push_back(v);
  }
  {
    Variant v{"no stagnation rescue", Base()};
    // τ > ∞·τ_prev is never true. (0 would fire on every iteration, and
    // ValidateDecompositionOptions rejects it.)
    v.options.stagnation_ratio = std::numeric_limits<double>::infinity();
    variants.push_back(v);
  }

  const linalg::Index m = args.full ? 128 : 64;
  const linalg::Index n = args.full ? 1024 : 512;

  for (auto wkind : {workload::WorkloadKind::kWRange,
                     workload::WorkloadKind::kWRelated}) {
    const auto workload = workload::GenerateWorkload(
        wkind, m, n, std::max<linalg::Index>(1, m / 5), args.seed);
    if (!workload.ok()) return 1;

    std::printf("-- %s (m=%td, n=%td) --\n",
                workload::WorkloadKindName(wkind).c_str(), m, n);
    eval::Table table({"variant", "noise error @ eps=1", "residual",
                       "outer iters", "time (s)"});
    for (const Variant& variant : variants) {
      WallTimer timer;
      const auto d =
          core::DecomposeWorkload(workload->matrix(), variant.options);
      const double seconds = timer.ElapsedSeconds();
      if (!d.ok()) {
        table.AddRow({variant.name, "ERR", "-", "-",
                      StrFormat("%.2f", seconds)});
        continue;
      }
      table.AddRow({variant.name, SciFormat(d->ExpectedNoiseError(1.0)),
                    SciFormat(d->residual, 1),
                    StrFormat("%d", d->outer_iterations),
                    StrFormat("%.2f", seconds)});
    }
    table.Print(std::cout);
    std::printf("\n");
  }
  std::printf("Reading: the stagnation rescue guards against the ALS stall "
              "documented in\ncore/alm_solver.cc.\n");
  return 0;
}
