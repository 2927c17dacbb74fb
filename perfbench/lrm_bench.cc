// The benchmark program: one process runs one workload against the library's
// public API, checks every output, and prints one JSON result as the last
// line of standard output. README.md in this directory documents the
// workloads, the metrics and the checks; run.py builds and invokes it.
//
//   lrm_bench --workload prepare-wrelated --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics. --scale tiny shrinks every
// shape for the benchmark's own test, and --inject nan|ledger corrupts one
// output on purpose so that test can show the checks catch it.

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/alm_solver.h"
#include "core/low_rank_mechanism.h"
#include "data/dataset.h"
#include "linalg/kernels/kernels.h"
#include "opt/l1_projection.h"
#include "service/answer_service.h"
#include "service/fingerprint.h"
#include "service/prepared_cache.h"
#include "workload/generators.h"

namespace {

using lrm::linalg::Index;
using lrm::linalg::Matrix;
using lrm::linalg::Vector;
using WorkloadPtr = std::shared_ptr<const lrm::workload::Workload>;

// Every release is made at this ε; Lemma 1 errors are reported at it too.
constexpr double kEpsilon = 1.0;
// Lifetime ε budget of each tenant: far above what a run spends, and an
// integer, so budget − Σε is exact in double arithmetic.
constexpr double kTenantBudget = 1e7;
// Noisy releases drawn from each prepared strategy on prepare-*.
constexpr int kReleasesPerStrategy = 400;
// Hits a one-second window of a serve loop needs to count.
constexpr std::size_t kMinWindowSamples = 20;
// Set-ups a run makes, each timed on its own; setup_s is their median. A
// prepare-* set-up generates one of the run's workloads and cold-prepares
// it; a serve-* set-up builds a service and prepares its hot set through it.
constexpr int kSetups = 3;
// Workloads a prepare-* run generates, prepares and times.
constexpr int kPrepareWorkloads = 6;
// Rounds of the phase loop through them a prepare-* run makes at least:
// one on each core of a 4-core machine.
constexpr std::size_t kMinRounds = 4;
// |z| beyond which the mean release error disagrees with Lemma 1.
constexpr double kMaxErrorZ = 6.0;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64 of (seed, stream, index): the seed of one generated input.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream * 1000003ULL +
                                                    index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// --------------------------------------------------------------------------
// Command line and workload plans
// --------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string inject = "none";
  std::string commit = "unknown";
};

// A workload matrix shape; base_rank 0 means WRange, otherwise WRelated
// with that inner dimension s.
struct Shape {
  Index m = 0;
  Index n = 0;
  Index base_rank = 0;
};

struct Plan {
  bool serve = false;
  Shape prepare;      // prepare-*: the shape of every prepared workload
  Shape hot;          // serve-*: the shape of the hot set
  int hot_count = 0;  // serve-*: workloads in the hot set
  bool churn = false;
  Shape churn_shape;  // serve-churn: the never-seen workloads of client B
};

bool MakePlan(const Args& args, Plan* plan) {
  const bool tiny = args.tiny;
  if (args.workload == "prepare-wrange") {
    plan->prepare = tiny ? Shape{16, 32, 0} : Shape{40, 80, 0};
  } else if (args.workload == "prepare-wrelated") {
    plan->prepare = tiny ? Shape{48, 96, 4} : Shape{192, 256, 16};
  } else if (args.workload == "serve-hot" ||
             args.workload == "serve-churn") {
    plan->serve = true;
    plan->hot = tiny ? Shape{32, 64, 4} : Shape{256, 512, 4};
    plan->hot_count = 6;
    plan->churn = args.workload == "serve-churn";
    plan->churn_shape = tiny ? Shape{24, 64, 4} : Shape{192, 512, 4};
  } else {
    return false;
  }
  return true;
}

WorkloadPtr MakeWorkload(const Shape& shape, std::uint64_t seed) {
  using lrm::workload::WorkloadKind;
  auto generated = lrm::workload::GenerateWorkload(
      shape.base_rank == 0 ? WorkloadKind::kWRange : WorkloadKind::kWRelated,
      shape.m, shape.n, shape.base_rank, seed);
  if (!generated.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 generated.status().ToString().c_str());
    std::exit(1);
  }
  return std::make_shared<const lrm::workload::Workload>(*generated);
}

// --------------------------------------------------------------------------
// Results, checks and statistics
// --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  long attempted = 0;
  long failed = 0;

  void Add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      failures.push_back("metric " + name + " is not finite");
    }
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? NAN : sum / static_cast<double>(v.size());
}

// Linear-interpolation quantile of the samples (rank q·(n−1)).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Mean of the middle half of the samples: as robust as the median to the
// outliers single inputs give, and steadier.
double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t k = cut; k < v.size() - cut; ++k) sum += v[k];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double SquaredError(const Vector& answers, const Vector& truth) {
  double sum = 0.0;
  for (Index i = 0; i < truth.size(); ++i) {
    const double d = answers[i] - truth[i];
    sum += d * d;
  }
  return sum;
}

// Squared errors of the releases made from one strategy, against the error
// that strategy should give: Lemma 1's noise error plus the structural
// error ‖(W − BL)·D‖² of the relaxed decomposition.
struct ErrorGroup {
  double expected = 0.0;
  long count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;

  void Add(double squared_error) {
    ++count;
    sum += squared_error;
    sum_sq += squared_error * squared_error;
  }
};

// Checks that the mean release error over all groups agrees with the
// expected error within kMaxErrorZ standard errors, two-sided so too little
// noise fails as loudly as too much. Returns the interquartile mean over
// groups of each group's mean release error.
double CheckReleaseError(const std::vector<ErrorGroup>& groups,
                         Report* report) {
  long n = 0;
  double diff = 0.0, diff_sq = 0.0;
  for (const ErrorGroup& g : groups) {
    n += g.count;
    diff += g.sum - g.count * g.expected;
    diff_sq += g.sum_sq - 2.0 * g.expected * g.sum +
               g.count * g.expected * g.expected;
  }
  report->Check(n > 1, "no releases to measure release error on");
  if (n <= 1) return NAN;
  const double mean_diff = diff / n;
  const double variance = diff_sq / n - mean_diff * mean_diff;
  const double z = mean_diff / std::sqrt(std::max(variance, 1e-300) / n);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "release error disagrees with Lemma 1: z = %.2f over %ld "
                "releases",
                z, n);
  report->Check(std::fabs(z) <= kMaxErrorZ, buf);
  std::vector<double> group_means;
  for (const ErrorGroup& g : groups) {
    if (g.count > 0) group_means.push_back(g.sum / g.count);
  }
  return InterquartileMean(group_means);
}

// Δ ≤ 1, τ ≤ γ and convergence: what Prepare promises for every strategy.
void CheckDecomposition(const lrm::core::Decomposition& d,
                        const std::string& label, Report* report) {
  const double gamma = lrm::core::DecompositionOptions{}.gamma;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%s: want sensitivity <= 1, residual <= gamma %.3g and "
                "converged; got %.12g, %.3g, %d",
                label.c_str(), gamma, d.sensitivity, d.residual,
                static_cast<int>(d.converged));
  report->Check(d.sensitivity <= 1.0 + 1e-9 && d.residual <= gamma &&
                    d.converged && std::isfinite(d.scale),
                buf);
}

bool SameMatrix(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

bool BitIdentical(const lrm::core::Decomposition& a,
                  const lrm::core::Decomposition& b) {
  return SameMatrix(a.b, b.b) && SameMatrix(a.l, b.l) &&
         a.scale == b.scale && a.sensitivity == b.sensitivity &&
         a.residual == b.residual &&
         a.outer_iterations == b.outer_iterations &&
         a.converged == b.converged;
}

// Repeats `fn` until it has run `min_reps` times and for `min_seconds`;
// returns the mean seconds per call.
double TimePerCall(const std::function<void()>& fn, int min_reps = 3,
                   double min_seconds = 0.2) {
  int reps = 0;
  double total = 0.0;
  while (reps < min_reps || total < min_seconds) {
    const double t0 = Now();
    fn();
    total += Now() - t0;
    ++reps;
  }
  return total / reps;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The CPUs this thread may run on.
cpu_set_t CurrentAffinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    std::perror("sched_getaffinity");
    std::exit(1);
  }
  return set;
}

// Pins this thread to the `index`-th CPU of `allowed`, cycling through them.
void PinToCpu(const cpu_set_t& allowed, std::size_t index) {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    std::perror("sched_setaffinity");
    std::exit(1);
  }
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model.empty() ? "unknown" : model;
}

// --------------------------------------------------------------------------
// Prepares and the layer probes every traced run makes
// --------------------------------------------------------------------------

struct ColdResult {
  std::unique_ptr<lrm::core::LowRankMechanism> mechanism;
  double seconds = 0.0;
};

// A cold prepare at default options, the way a one-shot user calls it.
ColdResult ColdPrepare(const WorkloadPtr& w, Report* report,
                       const std::string& label) {
  ColdResult result;
  result.mechanism = std::make_unique<lrm::core::LowRankMechanism>();
  const double t0 = Now();
  const lrm::Status status = result.mechanism->Prepare(w);
  result.seconds = Now() - t0;
  ++report->attempted;
  if (!status.ok()) {
    ++report->failed;
    report->Check(false, label + ": prepare failed: " + status.ToString());
    result.mechanism.reset();
    return result;
  }
  CheckDecomposition(result.mechanism->decomposition(), label, report);
  return result;
}

// One run of the phase loop Solve() strings together, each phase timed from
// outside: InitializeState, RunAlternation + RecordIterateAndAdvanceSchedule
// per outer iteration, Finalize.
struct PhaseTimes {
  std::optional<lrm::core::Decomposition> decomposition;  // empty on failure
  double init_scale = 0.0;  // Lemma 2-normalized scale Φ·Δ² of the init
  double init = 0.0;
  std::vector<double> alternation;  // per outer iteration
  std::vector<double> schedule;     // per outer iteration
  double finalize = 0.0;
  double wall = 0.0;

  double Total() const {
    double sum = init + finalize;
    for (double t : alternation) sum += t;
    for (double t : schedule) sum += t;
    return sum;
  }
  // Keeps each phase's faster time; `other` ran the same input.
  void KeepFastest(const PhaseTimes& other) {
    init = std::min(init, other.init);
    finalize = std::min(finalize, other.finalize);
    for (std::size_t k = 0; k < alternation.size(); ++k) {
      alternation[k] = std::min(alternation[k], other.alternation[k]);
      schedule[k] = std::min(schedule[k], other.schedule[k]);
    }
  }
};

PhaseTimes RunPhases(const Matrix& matrix, Report* report) {
  using lrm::core::DecompositionSolver;
  PhaseTimes t;
  DecompositionSolver solver(lrm::core::DecompositionOptions{});
  const double t_start = Now();
  auto state_or = solver.InitializeState(matrix);
  t.init = Now() - t_start;
  if (!state_or.ok()) {
    report->Check(false, "InitializeState failed: " +
                             state_or.status().ToString());
    return t;
  }
  lrm::core::AlmState state = std::move(state_or).value();
  t.init_scale = lrm::linalg::SquaredFrobeniusNorm(state.b) *
                 std::pow(lrm::linalg::MaxColumnAbsSum(state.l), 2);
  for (int outer = 1; outer <= solver.options().max_outer_iterations;
       ++outer) {
    const double t0 = Now();
    const lrm::Status status = solver.RunAlternation(matrix, &state);
    const double t1 = Now();
    t.alternation.push_back(t1 - t0);
    if (!status.ok()) {
      report->Check(false, "RunAlternation failed: " + status.ToString());
      return t;
    }
    const auto action = solver.RecordIterateAndAdvanceSchedule(matrix, &state);
    t.schedule.push_back(Now() - t1);
    if (action == DecompositionSolver::OuterAction::kStop) break;
  }
  const double t_finalize = Now();
  t.decomposition = solver.Finalize(&state);
  const double t_end = Now();
  t.finalize = t_end - t_finalize;
  t.wall = t_end - t_start;
  report->Check(std::fabs(t.Total() - t.wall) <= 0.05 * t.wall,
                "phase times do not add up to the phase loop's wall-clock");
  return t;
}

// The phase loop on `w`, checked to be Prepare's `ref` bit for bit, with
// its phase times summed.
void TracePhases(const WorkloadPtr& w, const lrm::core::Decomposition& ref,
                 double untraced_seconds, Report* report) {
  const PhaseTimes t = RunPhases(w->matrix(), report);
  if (!t.decomposition) return;
  const lrm::core::Decomposition& d = *t.decomposition;
  report->Check(BitIdentical(d, ref),
                "traced phase loop differs from Prepare's decomposition");
  double alternation = 0.0, schedule = 0.0;
  for (double s : t.alternation) alternation += s;
  for (double s : t.schedule) schedule += s;
  report->Add("core.init_s", t.init, "s");
  report->Add("core.alternation_s", alternation, "s");
  report->Add("core.schedule_s", schedule, "s");
  report->Add("core.finalize_s", t.finalize, "s");
  report->Add("core.outer_iterations", d.outer_iterations, "count");
  report->Add("core.rank", static_cast<double>(d.l.rows()), "count");
  report->Add("core.converged", d.converged ? 1.0 : 0.0, "bool");
  report->Add("core.alm_gain",
              t.init_scale / (d.scale * d.sensitivity * d.sensitivity),
              "ratio");
  report->Add("trace.overhead", t.wall / untraced_seconds, "ratio");
}

// Per-call costs of the opt and linalg kernels at the probe's own shapes,
// the fingerprint of its W, and the 1-thread vs default prepare ratio.
void ProbeKernels(const WorkloadPtr& w, const lrm::core::Decomposition& d,
                  double default_prepare_seconds, Report* report) {
  namespace kernels = lrm::linalg::kernels;
  const Index m = w->num_queries(), n = w->domain_size(), r = d.l.rows();

  // 2·L puts every column outside the unit L1 ball, so each one takes the
  // sort-and-threshold path.
  const Matrix doubled = d.l * 2.0;
  Matrix scratch = doubled;
  double projection = 0.0;
  int projections = 0;
  while (projections < 3 || projection < 0.2) {
    std::memcpy(scratch.data(), doubled.data(), sizeof(double) * d.l.size());
    const double t0 = Now();
    lrm::opt::ProjectColumnsOntoL1Ball(scratch, 1.0);
    projection += Now() - t0;
    ++projections;
  }
  report->Add("opt.l1_projection_ms", 1e3 * projection / projections, "ms");

  const Matrix h = lrm::linalg::GramAtA(d.b);  // r×r, like βBᵀB
  Matrix hl(r, n);
  const double gemm_hl = TimePerCall([&] {
    kernels::Gemm(kernels::Op::kNone, kernels::Op::kNone, r, n, r, 1.0,
                  h.data(), r, d.l.data(), n, 0.0, hl.data(), n);
  });
  report->Add("linalg.gemm_hl_ms", 1e3 * gemm_hl, "ms");
  report->Add("linalg.gemm_hl_gflops",
              2.0 * static_cast<double>(r) * r * n / gemm_hl / 1e9, "GFLOP/s");
  Matrix wlt(m, r);
  const double gemm_wlt = TimePerCall([&] {
    kernels::Gemm(kernels::Op::kNone, kernels::Op::kTranspose, m, r, n, 1.0,
                  w->matrix().data(), n, d.l.data(), n, 0.0, wlt.data(), r);
  });
  report->Add("linalg.gemm_wlt_ms", 1e3 * gemm_wlt, "ms");
  report->Add("linalg.gemm_threads", kernels::GemmThreads(), "count");

  const double fingerprint = TimePerCall(
      [&] { (void)lrm::service::FingerprintWorkload(*w); });
  report->Add("service.fingerprint_ms", 1e3 * fingerprint, "ms");

  kernels::SetGemmThreads(1);
  const ColdResult single = ColdPrepare(w, report, "1-thread prepare");
  kernels::SetGemmThreads(0);
  report->Add("linalg.thread_speedup",
              single.seconds / default_prepare_seconds, "ratio");
}

// --------------------------------------------------------------------------
// The service under a closed loop
// --------------------------------------------------------------------------

lrm::service::BatchAnswerRequest Request(const std::string& tenant,
                                         const WorkloadPtr& w) {
  lrm::service::BatchAnswerRequest request;
  request.tenant = tenant;
  request.epsilon = kEpsilon;
  request.workload = w;
  return request;
}

// What one closed-loop client saw.
struct ClientLog {
  long attempted = 0;
  long ok = 0;
  std::vector<double> latency;         // seconds, Submit to reply
  std::vector<double> done;            // Now() at each reply
  std::vector<double> submit;          // seconds inside Submit
  std::vector<double> miss_prepare;    // service-side prepare of misses
  std::vector<ErrorGroup> errors;      // per hot workload
  std::vector<std::string> failures;
};

struct HotSet {
  std::vector<WorkloadPtr> workloads;
  std::vector<Vector> truth;  // W·D per workload
};

// One request, timed from the Submit call to the reply, with every
// per-response check. Returns the response when it is OK.
std::optional<lrm::service::BatchAnswerResponse> TimedRequest(
    lrm::service::AnswerService& service, const std::string& tenant,
    const WorkloadPtr& w, bool corrupt, ClientLog* log) {
  ++log->attempted;
  const double t0 = Now();
  auto future = service.Submit(Request(tenant, w));
  const double t1 = Now();
  auto reply = future.get();
  const double t2 = Now();
  if (!reply.ok()) {
    log->failures.push_back("request failed: " + reply.status().ToString());
    return std::nullopt;
  }
  lrm::service::BatchAnswerResponse response = std::move(reply).value();
  if (corrupt) response.answers[0] = NAN;
  if (response.answers.size() != w->num_queries() ||
      !lrm::linalg::AllFinite(response.answers)) {
    log->failures.push_back("response is not m finite answers");
    return std::nullopt;
  }
  ++log->ok;
  log->latency.push_back(t2 - t0);
  log->done.push_back(t2);
  log->submit.push_back(t1 - t0);
  return response;
}

// Client of the hot set: request k asks for hot workload (offset + k) mod H.
// Runs until `deadline`, and past it while `keep_going` holds.
void HotClient(lrm::service::AnswerService& service, const HotSet& hot,
               const std::string& tenant, std::size_t offset, double deadline,
               const std::atomic<bool>& keep_going, bool corrupt_first,
               ClientLog* log) {
  log->errors.resize(hot.workloads.size());
  for (std::size_t k = 0; Now() < deadline || keep_going.load(); ++k) {
    const std::size_t h = (offset + k) % hot.workloads.size();
    auto response = TimedRequest(service, tenant, hot.workloads[h],
                                 corrupt_first && k == 0, log);
    if (!response) continue;
    if (!response->cache_hit) {
      log->failures.push_back("hot request was not a cache hit");
    }
    log->errors[h].Add(SquaredError(response->answers, hot.truth[h]));
  }
}

// Client B of serve-churn: one never-seen workload per request; every one
// must be a warm-started miss.
void ChurnClient(lrm::service::AnswerService& service, const Shape& shape,
                 std::uint64_t seed, std::size_t* next_index,
                 double deadline, ClientLog* log) {
  while (Now() < deadline) {
    const WorkloadPtr w =
        MakeWorkload(shape, DeriveSeed(seed, 5, (*next_index)++));
    auto response = TimedRequest(service, "client-b", w, false, log);
    if (!response) continue;
    if (response->cache_hit || !response->warm_started) {
      log->failures.push_back("churn request was not a warm miss");
    }
    log->miss_prepare.push_back(response->prepare_seconds);
  }
}

// Runs the closed loop for `seconds`: two hot clients (serve-hot) or one hot
// client beside the churn client (serve-churn). The window closes when the
// last client is done; the hot client keeps going while a miss is still in
// flight so the load stays the same throughout.
struct LoopResult {
  ClientLog hot_a, hot_b, churn;
  double start = 0.0;
  double elapsed = 0.0;

  long completed() const { return hot_a.ok + hot_b.ok + churn.ok; }
  std::vector<double> HitLatency() const {
    std::vector<double> all = hot_a.latency;
    all.insert(all.end(), hot_b.latency.begin(), hot_b.latency.end());
    return all;
  }

  // The lowest over the loop's one-second windows of each window's median
  // hit latency. The shared machine drifts between fast and slow phases
  // lasting seconds; like best-of-N timing, this follows the program's own
  // cost and not the share of the run its neighbours took.
  double FastestWindowHitMedian() const {
    std::vector<std::vector<double>> windows(
        static_cast<std::size_t>(elapsed) + 1);
    for (const ClientLog* log : {&hot_a, &hot_b}) {
      for (std::size_t k = 0; k < log->latency.size(); ++k) {
        windows[static_cast<std::size_t>(log->done[k] - start)].push_back(
            log->latency[k]);
      }
    }
    std::vector<double> medians;
    for (const std::vector<double>& w : windows) {
      if (w.size() >= kMinWindowSamples) medians.push_back(Quantile(w, 0.5));
    }
    return Quantile(medians, 0.0);
  }
};

LoopResult RunLoop(lrm::service::AnswerService& service, const Plan& plan,
                   const HotSet& hot, std::uint64_t seed,
                   std::size_t* churn_index, double seconds, bool corrupt) {
  LoopResult result;
  std::atomic<bool> churn_running{plan.churn};
  const std::atomic<bool> never{false};
  const double start = Now();
  const double deadline = start + seconds;
  result.start = start;
  std::thread a([&] {
    HotClient(service, hot, "client-a", 0, deadline, churn_running, corrupt,
              &result.hot_a);
  });
  std::thread b([&] {
    if (plan.churn) {
      ChurnClient(service, plan.churn_shape, seed, churn_index, deadline,
                  &result.churn);
      churn_running.store(false);
    } else {
      HotClient(service, hot, "client-b", hot.workloads.size() / 2, deadline,
                never, false, &result.hot_b);
    }
  });
  a.join();
  b.join();
  result.elapsed = Now() - start;
  return result;
}

struct ServeSetup {
  std::unique_ptr<lrm::service::AnswerService> service;
  HotSet hot;
  Vector data;
  std::vector<double> prepare_seconds;  // set-up requests, client-side
  std::vector<double> warm_prepare;     // service-side, warm hot misses
  double seconds = 0.0;
  long requests = 0;
};

lrm::service::AnswerServiceOptions ServiceOptions(const Plan& plan) {
  lrm::service::AnswerServiceOptions options;
  // serve-churn: room for the hot set plus two churn workloads, so every
  // new churn workload evicts the oldest one.
  if (plan.churn) options.cache.capacity = plan.hot_count + 2;
  return options;
}

// Builds the service and prepares the hot set through it, one request at a
// time (hot workload h > 0 warm-starts from h − 1); serve-churn also
// prepares one cold churn-shaped workload so every timed miss is warm.
ServeSetup SetUpService(const Plan& plan, std::uint64_t seed,
                        Report* report) {
  ServeSetup setup;
  const double t0 = Now();
  setup.data =
      lrm::data::GenerateSearchLogs(plan.hot.n, DeriveSeed(seed, 1, 0)).counts;
  setup.service = std::make_unique<lrm::service::AnswerService>(
      setup.data, ServiceOptions(plan));
  for (const char* tenant : {"setup", "client-a", "client-b"}) {
    report->Check(setup.service->RegisterTenant(tenant, kTenantBudget).ok(),
                  "RegisterTenant failed");
  }
  std::vector<WorkloadPtr> to_prepare;
  for (int h = 0; h < plan.hot_count; ++h) {
    setup.hot.workloads.push_back(
        MakeWorkload(plan.hot, DeriveSeed(seed, 4, h)));
    setup.hot.truth.push_back(setup.hot.workloads.back()->Answer(setup.data));
    to_prepare.push_back(setup.hot.workloads.back());
  }
  if (plan.churn) {
    to_prepare.push_back(
        MakeWorkload(plan.churn_shape, DeriveSeed(seed, 6, 0)));
  }
  ClientLog log;
  for (std::size_t i = 0; i < to_prepare.size(); ++i) {
    auto response = TimedRequest(*setup.service, "setup", to_prepare[i],
                                 false, &log);
    if (!response) continue;
    const bool expect_warm = i > 0 && i < setup.hot.workloads.size();
    report->Check(!response->cache_hit && response->warm_started == expect_warm,
                  "set-up request " + std::to_string(i) +
                      " did not miss the cache as planned");
    if (expect_warm) setup.warm_prepare.push_back(response->prepare_seconds);
  }
  setup.seconds = Now() - t0;
  setup.prepare_seconds = log.latency;
  setup.requests = log.attempted;
  report->attempted += log.attempted;
  report->failed += log.attempted - log.ok;
  for (const std::string& f : log.failures) report->Check(false, f);
  return setup;
}

// Replays the hot-set set-up on a standalone cache with the service's
// options: the same sequence gives the same strategies, whose Lemma 1
// errors the service's releases must match.
std::vector<std::shared_ptr<const lrm::core::LowRankMechanism>> ReplayHotSet(
    const Plan& plan, const HotSet& hot, Report* report) {
  lrm::service::PreparedMechanismCache cache(ServiceOptions(plan).cache);
  std::vector<std::shared_ptr<const lrm::core::LowRankMechanism>> mechanisms;
  for (std::size_t h = 0; h < hot.workloads.size(); ++h) {
    auto lease = cache.GetOrPrepare(hot.workloads[h]);
    if (!lease.ok()) {
      report->Check(false, "replay prepare failed: " +
                               lease.status().ToString());
      return {};
    }
    CheckDecomposition(lease.value().mechanism->decomposition(),
                       "hot workload " + std::to_string(h), report);
    mechanisms.push_back(lease.value().mechanism);
  }
  return mechanisms;
}

// Each tenant's remaining ε must be its budget minus ε per OK release, and
// the ledger must never have refused an over-refund.
void CheckLedger(lrm::service::AnswerService& service,
                 const std::vector<std::pair<std::string, long>>& releases,
                 Report* report) {
  for (const auto& [tenant, count] : releases) {
    auto remaining = service.RemainingBudget(tenant);
    const double expected = kTenantBudget - kEpsilon * count;
    report->Check(remaining.ok() && remaining.value() == expected,
                  "ledger of " + tenant + " disagrees with its releases");
  }
  report->Check(service.over_refund_count() == 0, "ledger over-refunded");
}

double HistogramMeanDelta(const lrm::obs::RegistrySnapshot& before,
                          const lrm::obs::RegistrySnapshot& after,
                          const std::string& name) {
  const auto a = after.histograms.find(name);
  const auto b = before.histograms.find(name);
  if (a == after.histograms.end()) return NAN;
  if (b == before.histograms.end()) return a->second.Mean();
  return a->second.DeltaSince(b->second).Mean();
}

std::int64_t Counter(const lrm::obs::RegistrySnapshot& s,
                     const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

// Registry-derived service and cache metrics. Stage means cover the window
// between `before` and `after`; cache counts cover the service's lifetime.
void AddServiceLayerMetrics(const lrm::obs::RegistrySnapshot& before,
                            const lrm::obs::RegistrySnapshot& after,
                            const std::vector<double>& client_latency,
                            const std::vector<double>& client_submit,
                            Report* report) {
  const double serve_ms =
      1e3 * HistogramMeanDelta(before, after, "service.serve_seconds");
  report->Add("service.submit_us", 1e6 * Mean(client_submit), "us");
  report->Add("service.serve_ms", serve_ms, "ms");
  report->Add("service.answer_ms",
              1e3 * HistogramMeanDelta(before, after, "service.answer_seconds"),
              "ms");
  report->Add(
      "service.admission_us",
      1e6 * HistogramMeanDelta(before, after, "service.admission_seconds"),
      "us");
  report->Add("service.queue_ms", 1e3 * Mean(client_latency) - serve_ms, "ms");
  const std::int64_t hits = Counter(after, "cache.hits");
  const std::int64_t misses = Counter(after, "cache.misses");
  report->Add("cache.hit_rate",
              static_cast<double>(hits) /
                  std::max<std::int64_t>(1, hits + misses),
              "ratio");
  report->Add("cache.misses", misses, "count");
  report->Add("cache.warm_misses", Counter(after, "cache.warm_misses"),
              "count");
  report->Add("cache.evictions", Counter(after, "cache.evictions"), "count");
  const auto prepare = after.histograms.find("cache.prepare_seconds");
  report->Add("cache.prepare_s",
              prepare == after.histograms.end() ? NAN : prepare->second.Mean(),
              "s");
  report->Add("alm.iterations_per_miss",
              static_cast<double>(Counter(after, "alm.iterations")) /
                  std::max<std::int64_t>(1, misses),
              "count");
}

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

// kReleasesPerStrategy noisy releases from one prepared strategy, each
// checked, tallied against the error the strategy should give.
ErrorGroup ReleaseFrom(const lrm::core::LowRankMechanism& mech,
                       const lrm::workload::Workload& w, const Vector& data,
                       std::uint64_t seed, bool corrupt_first,
                       Report* report) {
  ErrorGroup group;
  group.expected = mech.ExpectedSquaredError(kEpsilon).value() +
                   mech.StructuralError(data);
  const Vector truth = w.Answer(data);
  lrm::rng::Engine engine(seed);
  for (int k = 0; k < kReleasesPerStrategy; ++k) {
    ++report->attempted;
    auto answers = mech.Answer(data, kEpsilon, engine);
    if (!answers.ok()) {
      ++report->failed;
      report->Check(false, "release failed: " + answers.status().ToString());
      continue;
    }
    if (corrupt_first && k == 0) answers.value()[0] = NAN;
    report->Check(answers.value().size() == w.num_queries() &&
                      lrm::linalg::AllFinite(answers.value()),
                  "release is not m finite answers");
    group.Add(SquaredError(answers.value(), truth));
  }
  return group;
}

// prepare-*: cold prepares of generated workloads for `seconds`, each
// checked, the first of each workload followed by kReleasesPerStrategy
// noisy releases. The traced run instead drives the solver's phases and the
// layer probes on workload 0.
void RunPrepare(const Args& args, const Plan& plan, Report* report) {
  const Vector data =
      lrm::data::GenerateSearchLogs(plan.prepare.n, DeriveSeed(args.seed, 1, 0))
          .counts;
  auto workload_at = [&](std::size_t i) {
    return MakeWorkload(plan.prepare, DeriveSeed(args.seed, 2, i));
  };

  if (args.trace) {
    // The first prepare of the process pays lazy initialization, so the
    // untraced reference time comes from a second one.
    const WorkloadPtr w0 = workload_at(0);
    const ColdResult ref = ColdPrepare(w0, report, "workload 0");
    if (!ref.mechanism) return;
    const lrm::core::Decomposition& d = ref.mechanism->decomposition();
    const double untraced_seconds =
        ColdPrepare(w0, report, "workload 0 again").seconds;
    TracePhases(w0, d, untraced_seconds, report);
    ProbeKernels(w0, d, untraced_seconds, report);
    report->Add("mechanism.expected_error", d.ExpectedNoiseError(kEpsilon),
                "count2");

    // The same W through a default service: one miss, then hits.
    lrm::service::AnswerService service(data);
    report->Check(service.RegisterTenant("client-a", kTenantBudget).ok(),
                  "RegisterTenant failed");
    ClientLog log;
    if (!TimedRequest(service, "client-a", w0, false, &log)) {
      report->Check(false, "service miss failed");
      return;
    }
    const double miss_seconds = log.latency[0];
    const auto before = service.MetricsSnapshot();
    log.latency.clear();
    log.submit.clear();
    const double hits_start = Now();
    while (Now() < hits_start + std::min(1.0, args.seconds / 4) ||
           log.latency.size() < 20) {
      auto response = TimedRequest(service, "client-a", w0, false, &log);
      if (response && !response->cache_hit) {
        log.failures.push_back("repeated request was not a cache hit");
      }
    }
    report->Add("service.qps", log.latency.size() / (Now() - hits_start),
                "1/s");
    report->Add("service.hit_p99_ms", 1e3 * Quantile(log.latency, 0.99),
                "ms");
    report->Add("cache.miss_ms", 1e3 * miss_seconds, "ms");
    AddServiceLayerMetrics(before, service.MetricsSnapshot(), log.latency,
                           log.submit, report);
    report->attempted += log.attempted;
    report->failed += log.attempted - log.ok;
    for (const std::string& f : log.failures) report->Check(false, f);
    CheckLedger(service, {{"client-a", log.ok}}, report);

    // Warm start of the next workload from workload 0's strategy, against
    // its cold prepare.
    const WorkloadPtr w1 = workload_at(1);
    const ColdResult cold = ColdPrepare(w1, report, "workload 1");
    lrm::core::LowRankMechanism warm;
    const double t0 = Now();
    const lrm::Status status = warm.PrepareWithHint(w1, d);
    const double warm_seconds = Now() - t0;
    ++report->attempted;
    report->Check(status.ok(), "warm prepare failed: " + status.ToString());
    if (!status.ok()) ++report->failed;
    if (status.ok()) {
      CheckDecomposition(warm.decomposition(), "warm workload 1", report);
    }
    report->Add("cache.warm_gain", cold.seconds / warm_seconds, "ratio");
    return;
  }

  std::vector<double> lemma1;
  std::vector<ErrorGroup> errors;
  // Every strategy's first prepare feeds the error metrics.
  auto release_from = [&](const lrm::core::LowRankMechanism& mech,
                          const lrm::workload::Workload& w) {
    lemma1.push_back(mech.ExpectedSquaredError(kEpsilon).value());
    errors.push_back(ReleaseFrom(mech, w, data,
                                 DeriveSeed(args.seed, 3, errors.size()),
                                 args.inject == "nan" && errors.empty(),
                                 report));
  };

  // Round 0: each workload is generated and cold-prepared the way a
  // one-shot user calls Prepare, checked, and released from. The first
  // kSetups of these, the first of them the process's first, are the
  // set-up: setup_s is the median of their generation plus prepare.
  std::vector<WorkloadPtr> set;
  std::vector<lrm::core::Decomposition> first;
  std::vector<double> setup_seconds;
  const double start = Now();
  for (int i = 0; i < kPrepareWorkloads; ++i) {
    const double t0 = Now();
    const WorkloadPtr w = workload_at(1 + i);
    const ColdResult prepared =
        ColdPrepare(w, report, "workload " + std::to_string(1 + i));
    if (!prepared.mechanism) return;
    if (i < kSetups) setup_seconds.push_back(Now() - t0);
    set.push_back(w);
    first.push_back(prepared.mechanism->decomposition());
    release_from(*prepared.mechanism, *w);
  }

  // Then rounds of Prepare's phase loop over the same workloads, kMinRounds
  // at least, until the time is up; each must give Prepare's decomposition
  // bit for bit. On the shared machine the cores differ: while a neighbour
  // loads one, a single-threaded kernel runs up to 50% slower there for
  // minutes, and besides that every core slows down in bursts of 0.1 s to
  // a second. So round r runs pinned to the r-th allowed core, and
  // latency_ms keeps each phase's fastest time over the rounds (outer
  // iterations take tens of milliseconds), sums them per workload, and
  // takes the mean over the workloads: a cold prepare on the calmest core.
  const cpu_set_t allowed = CurrentAffinity();
  std::vector<PhaseTimes> fastest(set.size());
  long phase_runs = 0;
  for (std::size_t k = 0;
       k < kMinRounds * set.size() || Now() - start < args.seconds; ++k) {
    const std::size_t i = k % set.size();
    if (i == 0) PinToCpu(allowed, k / set.size());
    ++report->attempted;
    PhaseTimes t = RunPhases(set[i]->matrix(), report);
    if (!t.decomposition) {
      ++report->failed;
      return;
    }
    report->Check(BitIdentical(*t.decomposition, first[i]),
                  "the phase loop differs from Prepare's decomposition");
    if (!report->failures.empty()) return;
    if (k < set.size()) {
      fastest[i] = std::move(t);
    } else {
      fastest[i].KeepFastest(t);
    }
    ++phase_runs;
  }
  if (sched_setaffinity(0, sizeof(allowed), &allowed) != 0) {
    std::perror("sched_setaffinity");
    std::exit(1);
  }
  std::vector<double> best;
  for (const PhaseTimes& t : fastest) best.push_back(t.Total());
  const double release_mse = CheckReleaseError(errors, report);

  report->Add("setup_s", Quantile(setup_seconds, 0.5), "s");
  report->Add("latency_ms", 1e3 * Mean(best), "ms");
  report->Add("expected_error", InterquartileMean(lemma1), "count2");
  report->Add("release_mse", release_mse, "count2");
  double iterations = 0.0;
  for (const lrm::core::Decomposition& d : first) {
    iterations += d.outer_iterations;
  }
  std::printf("# samples: workloads=%zu phase_loop_runs=%ld "
              "strategies=%zu releases_each=%d mean_outer_iterations=%.2f\n",
              set.size(), phase_runs, errors.size(), kReleasesPerStrategy,
              iterations / static_cast<double>(first.size()));
}

// serve-*: the closed loop against a prepared hot set.
void RunServe(const Args& args, const Plan& plan, Report* report) {
  // kSetups identical set-ups, each on a fresh service; the loop runs on
  // the last one.
  ServeSetup setup;
  std::vector<double> setup_seconds;
  for (int i = 0; i < kSetups; ++i) {
    setup.service.reset();
    setup = SetUpService(plan, args.seed, report);
    setup_seconds.push_back(setup.seconds);
    if (!report->failures.empty()) return;
  }
  lrm::service::AnswerService& service = *setup.service;
  std::size_t churn_index = 0;

  // The traced run reads the registry at the window's edges, so its stage
  // means cover the loop alone; the loop itself runs the same either way.
  const lrm::obs::RegistrySnapshot before = service.MetricsSnapshot();
  const LoopResult loop = RunLoop(service, plan, setup.hot, args.seed,
                                  &churn_index, args.seconds,
                                  args.inject == "nan");
  const lrm::obs::RegistrySnapshot after = service.MetricsSnapshot();
  service.Drain();

  std::vector<ErrorGroup> errors(setup.hot.workloads.size());
  for (const ClientLog* log : {&loop.hot_a, &loop.hot_b, &loop.churn}) {
    report->attempted += log->attempted;
    report->failed += log->attempted - log->ok;
    for (const std::string& f : log->failures) report->Check(false, f);
    for (std::size_t h = 0; h < log->errors.size(); ++h) {
      errors[h].count += log->errors[h].count;
      errors[h].sum += log->errors[h].sum;
      errors[h].sum_sq += log->errors[h].sum_sq;
    }
  }
  if (args.inject == "ledger") {
    // A release the client does not count: the ledger check must see it.
    ClientLog extra;
    TimedRequest(service, "client-a", setup.hot.workloads[0], false, &extra);
  }
  CheckLedger(service,
              {{"setup", setup.requests},
               {"client-a", loop.hot_a.ok},
               {"client-b", loop.hot_b.ok + loop.churn.ok}},
              report);

  const auto mechanisms = ReplayHotSet(plan, setup.hot, report);
  if (mechanisms.size() != setup.hot.workloads.size()) return;
  std::vector<double> lemma1;
  for (std::size_t h = 0; h < mechanisms.size(); ++h) {
    lemma1.push_back(mechanisms[h]->ExpectedSquaredError(kEpsilon).value());
    errors[h].expected =
        lemma1.back() + mechanisms[h]->StructuralError(setup.data);
  }
  const double release_mse = CheckReleaseError(errors, report);

  const std::vector<double> hits = loop.HitLatency();
  if (!args.trace) {
    report->Add("setup_s", Quantile(setup_seconds, 0.5), "s");
    report->Add("latency_ms", 1e3 * loop.FastestWindowHitMedian(), "ms");
    report->Add("expected_error", InterquartileMean(lemma1), "count2");
    report->Add("release_mse", release_mse, "count2");
    std::printf("# samples: hits=%zu misses=%zu setup_prepares=%zu "
                "plain_p50_ms=%.4f qps=%.2f\n",
                hits.size(), loop.churn.latency.size(),
                setup.prepare_seconds.size(), 1e3 * Quantile(hits, 0.5),
                loop.completed() / loop.elapsed);
    return;
  }

  report->Add("service.qps", loop.completed() / loop.elapsed, "1/s");
  report->Add("service.hit_p99_ms", 1e3 * Quantile(hits, 0.99), "ms");
  report->Add("cache.miss_ms",
              1e3 * Quantile(plan.churn ? loop.churn.latency
                                        : setup.prepare_seconds,
                             0.5),
              "ms");
  std::vector<double> latency = loop.hot_a.latency;
  std::vector<double> submit = loop.hot_a.submit;
  for (const ClientLog* log : {&loop.hot_b, &loop.churn}) {
    latency.insert(latency.end(), log->latency.begin(), log->latency.end());
    submit.insert(submit.end(), log->submit.begin(), log->submit.end());
  }
  AddServiceLayerMetrics(before, after, latency, submit, report);
  report->Add("mechanism.expected_error", InterquartileMean(lemma1), "count2");

  // The layer probes run on one representative workload: hot workload 1
  // (a warm miss at set-up) on serve-hot, the first churn workload (the
  // first warm miss of the loop) on serve-churn.
  const WorkloadPtr probe =
      plan.churn ? MakeWorkload(plan.churn_shape, DeriveSeed(args.seed, 5, 0))
                 : setup.hot.workloads[1];
  const std::vector<double>& warm =
      plan.churn ? loop.churn.miss_prepare : setup.warm_prepare;
  report->Check(!warm.empty(), "no warm miss to compare a cold prepare with");
  if (warm.empty()) return;
  const ColdResult ref = ColdPrepare(probe, report, "probe workload");
  if (!ref.mechanism) return;
  TracePhases(probe, ref.mechanism->decomposition(), ref.seconds, report);
  ProbeKernels(probe, ref.mechanism->decomposition(), ref.seconds, report);
  report->Add("cache.warm_gain", ref.seconds / warm[0], "ratio");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scale") {
      args->tiny = value == "tiny";
    } else if (flag == "--inject") {
      args->inject = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Plan plan;
  if (!ParseArgs(argc, argv, &args) || !MakePlan(args, &plan)) {
    std::fprintf(stderr,
                 "usage: lrm_bench --workload prepare-wrange|prepare-wrelated|"
                 "serve-hot|serve-churn --seed N --seconds S --trace 0|1 "
                 "[--scale full|tiny] [--inject none|nan|ledger] "
                 "[--commit SHA]\n");
    return 1;
  }
  std::printf("# lrm_bench workload=%s seed=%llu seconds=%g trace=%d "
              "scale=%s cpu=\"%s\" nproc=%u gemm_threads=%d build_type=%s "
              "commit=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.tiny ? "tiny" : "full",
              CpuModel().c_str(), std::thread::hardware_concurrency(),
              lrm::linalg::kernels::GemmThreads(), LRM_BENCH_BUILD_TYPE,
              args.commit.c_str());

  Report report;
  if (plan.serve) {
    RunServe(args, plan, &report);
  } else {
    RunPrepare(args, plan, &report);
  }
  if (!args.trace) report.Add("peak_rss_mb", PeakRssMb(), "MB");

  const bool correct = report.failures.empty();
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  std::string metrics;
  if (correct) {
    for (const Metric& m : report.metrics) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
      metrics += buf;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", report.attempted, report.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 2;
}
