// Synthetic trace generator calibrated to the paper's published workload
// marginals (Sec. III and VI-A):
//   * one month, 100,000 jobs: 75,000 CPU + 25,000 GPU;
//   * requested-core histogram for GPU jobs (Fig. 2d): 76.1% ask for 1-2
//     cores, 15.3% ask for more than 10;
//   * GPU jobs are mostly NLP and Speech training;
//   * CPU arrivals follow a diurnal pattern (Fig. 1), GPU arrivals are flat;
//   * GPU-job runtimes: 68.5% longer than 1 hour, 39.6% longer than 2 hours
//     (Sec. VI-F), fit with a log-normal;
//   * 0.5% of CPU jobs are memory-bandwidth-intensive (Sec. VI-E).
//
// The generator is seeded and fully deterministic.
#pragma once

#include <vector>

#include "util/rng.h"
#include "workload/job.h"
#include "workload/tenant.h"

namespace coda::workload {

struct TraceConfig {
  uint64_t seed = 42;
  double duration_s = 30.0 * 86400.0;  // one month
  int cpu_jobs = 75000;
  int gpu_jobs = 25000;

  // Diurnal modulation of CPU-job arrivals: rate(t) =
  // base * (1 + amplitude * sin(2*pi*(t - phase)/86400)).
  double diurnal_amplitude = 0.8;
  double diurnal_phase_s = 0.0;

  // Fraction of CPU jobs with HEAT-like bandwidth demand (Sec. VI-E).
  double heavy_bw_cpu_fraction = 0.005;

  // Fraction of the AI companies' CPU jobs that are user-facing inference
  // services (Sec. V-A / Fig. 2a: the companies "emphasize the model
  // inference, which typically uses the CPU"). These outrank training.
  double user_facing_cpu_fraction = 0.3;
  double user_facing_runtime_mu = 6.8;   // median ~15 min
  double user_facing_runtime_sigma = 0.8;

  // GPU-job runtime log-normal (natural-log parameters). Defaults solve
  // P(>1h)=0.685, P(>2h)=0.396 (Sec. VI-F).
  double gpu_runtime_mu = 8.64;
  double gpu_runtime_sigma = 0.93;

  // CPU-job runtime log-normal (natural-log parameters), clamped to
  // [lo, hi]. The companies' CPU work (inference backends, auxiliary batch
  // jobs) is long enough to genuinely contend with GPU jobs for cores —
  // the paper's premise that CPU is the scarce resource.
  double cpu_runtime_mu = 8.19;   // median ~1 h
  double cpu_runtime_sigma = 1.2;
  double cpu_runtime_lo_s = 60.0;
  double cpu_runtime_hi_s = 12.0 * 3600.0;

  // Fraction of GPU jobs whose owner provides the optional hints and the
  // model category (Sec. V-B1 assumes "at least the categories"; the worst
  // case is exercised by the remainder).
  double hint_fraction = 0.6;
  double category_known_fraction = 0.95;

  // ---- scale-profile overrides (see scale_profile / bench_scale) ----
  // When > 0, this fraction of GPU jobs trains across `wide_span_nodes`
  // servers (`wide_span_gpus_per_node` GPUs each) instead of drawing from
  // the stock configuration mix (whose widest job spans 2 nodes). Wide
  // gangs make single start/finish events dirty many nodes at once — the
  // shape a capacity-planning cluster shows. 0 (the default) leaves the generator's RNG stream
  // untouched, so existing seeded traces reproduce exactly.
  double wide_span_fraction = 0.0;
  int wide_span_nodes = 4;
  int wide_span_gpus_per_node = 2;

  std::vector<Tenant> tenants = standard_tenants();
};

// Synthetic scale profile: a `nodes`-server cluster's workload compressed
// into `duration_s`, GPU-heavy and dominated by wide multi-node training
// gangs plus co-located CPU jobs. Parameterized directly by cluster size
// and per-kind job counts so bench_scale can sweep 2k/10k-node clusters;
// arrival rate follows from count / duration. Deterministic in `seed`.
TraceConfig scale_profile(int nodes, int gpu_jobs, int cpu_jobs,
                          double duration_s, uint64_t seed = 42);

// Aggregate descriptive statistics of a generated trace; used by the Fig. 2
// bench and by tests that pin the marginals to the paper's numbers.
struct TraceSummary {
  int cpu_jobs = 0;
  int gpu_jobs = 0;
  double frac_gpu_req_1_2_cores = 0.0;   // paper: 0.761
  double frac_gpu_req_gt10_cores = 0.0;  // paper: 0.153
  double frac_gpu_runtime_gt_1h = 0.0;   // paper: 0.685
  double frac_gpu_runtime_gt_2h = 0.0;   // paper: 0.396
  double frac_gpu_multi_node = 0.0;
  double frac_heavy_bw_cpu = 0.0;        // paper: 0.005
  double frac_user_facing_cpu = 0.0;
};

class TraceGenerator {
 public:
  explicit TraceGenerator(const TraceConfig& config) : config_(config) {}

  const TraceConfig& config() const { return config_; }

  // Generates the full trace, sorted by submit time, with consecutive job
  // ids starting at 1.
  std::vector<JobSpec> generate() const;

  // Ideal runtime (seconds at the optimal allocation, no contention) that a
  // GPU job's iteration count was derived from. `perf` is any model; its
  // memo only saves work.
  static double ideal_gpu_runtime(const JobSpec& spec,
                                  const perfmodel::TrainPerf& perf);

  // Descriptive statistics of a trace.
  static TraceSummary summarize(const std::vector<JobSpec>& trace);

 private:
  JobSpec make_gpu_job(util::Rng& rng, const Tenant& tenant, double submit,
                       const perfmodel::TrainPerf& perf) const;
  JobSpec make_cpu_job(util::Rng& rng, const Tenant& tenant,
                       double submit) const;

  // Draws `count` arrival times in [0, duration) from a (possibly
  // diurnally-modulated) Poisson process, sorted ascending.
  std::vector<double> arrival_times(util::Rng& rng, int count,
                                    bool diurnal) const;

  TraceConfig config_;
};

}  // namespace coda::workload
