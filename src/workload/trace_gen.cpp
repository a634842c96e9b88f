#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "perfmodel/train_perf.h"
#include "util/assert.h"

namespace coda::workload {

TraceConfig scale_profile(int nodes, int gpu_jobs, int cpu_jobs,
                          double duration_s, uint64_t seed) {
  TraceConfig cfg;
  cfg.seed = seed;
  cfg.duration_s = duration_s;
  cfg.gpu_jobs = gpu_jobs;
  cfg.cpu_jobs = cpu_jobs;
  // Most of the GPU load trains across several servers: one start/finish
  // then dirties the whole gang's nodes inside a single dispatched event,
  // the widest recompute shape a flush sees.
  cfg.wide_span_fraction = 0.7;
  // Span grows gently with cluster size (4 legs at 2k nodes, 8 at 10k) —
  // big clusters run bigger gangs, and wider gangs mean wider flushes.
  cfg.wide_span_nodes = nodes >= 8000 ? 8 : 4;
  cfg.wide_span_gpus_per_node = 2;
  // Long-running jobs keep resident density high relative to arrivals, so
  // flush work (not placement scans) dominates the replay.
  cfg.gpu_runtime_mu = 9.4;
  cfg.cpu_runtime_mu = 8.8;
  return cfg;
}

std::vector<double> TraceGenerator::arrival_times(util::Rng& rng, int count,
                                                  bool diurnal) const {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(count));
  const double a = config_.diurnal_amplitude;
  CODA_ASSERT(a >= 0.0 && a < 1.0);
  while (static_cast<int>(times.size()) < count) {
    const double t = rng.uniform(0.0, config_.duration_s);
    if (!diurnal) {
      times.push_back(t);
      continue;
    }
    // Thinning: accept proportionally to the instantaneous rate.
    const double rate =
        1.0 + a * std::sin(2.0 * std::numbers::pi *
                           (t - config_.diurnal_phase_s) / 86400.0);
    if (rng.uniform() * (1.0 + a) < rate) {
      times.push_back(t);
    }
  }
  std::sort(times.begin(), times.end());
  return times;
}

JobSpec TraceGenerator::make_gpu_job(util::Rng& rng, const Tenant& tenant,
                                     double submit,
                                     const perfmodel::TrainPerf& perf) const {
  JobSpec spec;
  spec.kind = JobKind::kGpuTraining;
  spec.tenant = tenant.id;
  spec.submit_time = submit;

  CODA_ASSERT(!tenant.preferred_models.empty());
  spec.model = tenant.preferred_models[static_cast<size_t>(
      rng.uniform_int(0, static_cast<int64_t>(
                             tenant.preferred_models.size()) - 1))];

  // Training configuration and batch size. Most jobs are single-GPU; a
  // solid fraction asks for 4 GPUs (feeding the 4-GPU sub-array of Sec.
  // V-C) and a few train across nodes (Sec. IV-B2).
  static const perfmodel::TrainConfig kConfigs[] = {
      {1, 1, 0}, {1, 2, 0}, {1, 4, 0}, {2, 2, 0}};
  static const std::vector<double> kConfigWeights = {0.40, 0.20, 0.30, 0.10};
  spec.train_config = kConfigs[rng.weighted_index(kConfigWeights)];
  // Scale-profile override, gated so the default (fraction 0) draws nothing
  // from the stream and stock traces reproduce bit for bit.
  if (config_.wide_span_fraction > 0.0 &&
      rng.bernoulli(config_.wide_span_fraction)) {
    spec.train_config = perfmodel::TrainConfig{
        config_.wide_span_nodes, config_.wide_span_gpus_per_node, 0};
  }
  if (rng.bernoulli(0.2)) {
    spec.train_config.batch_size = perfmodel::model_params(spec.model).max_batch;
  }

  // Requested cores per node (Fig. 2d + Sec. VI-D): 76.1% of jobs "apply
  // for one or two cores for each GPU", 15.3% ask for more than 10 cores.
  const double u = rng.uniform();
  if (u < 0.200) {
    spec.requested_cpus = 1 * spec.train_config.gpus_per_node;
  } else if (u < 0.761) {
    spec.requested_cpus = 2 * spec.train_config.gpus_per_node;
  } else if (u < 0.847) {
    spec.requested_cpus = static_cast<int>(rng.uniform_int(3, 10));
  } else {
    spec.requested_cpus = static_cast<int>(rng.uniform_int(11, 24));
  }
  spec.requested_cpus = std::clamp(spec.requested_cpus, 1, 24);

  // Total iterations from an ideal-runtime draw (Sec. VI-F distribution).
  const double runtime = std::clamp(
      rng.lognormal(config_.gpu_runtime_mu, config_.gpu_runtime_sigma),
      300.0, 48.0 * 3600.0);
  const int opt = perf.optimal_cores(spec.model, spec.train_config);
  spec.iterations =
      std::max(1.0, runtime / perf.iter_time(spec.model, spec.train_config,
                                             opt));

  // Optional user hints (Sec. V-B1).
  const auto& params = perfmodel::model_params(spec.model);
  spec.hints.category_known = rng.bernoulli(config_.category_known_fraction);
  if (rng.bernoulli(config_.hint_fraction)) {
    spec.hints.pipelined = params.pipelined;
    spec.hints.large_weights = params.weights_gb > 0.2;
    spec.hints.complex_prep =
        params.prep_work_core_s / params.gpu_time_s > 4.0;
  }
  return spec;
}

JobSpec TraceGenerator::make_cpu_job(util::Rng& rng, const Tenant& tenant,
                                     double submit) const {
  JobSpec spec;
  spec.kind = JobKind::kCpu;
  spec.tenant = tenant.id;
  spec.submit_time = submit;

  static const std::vector<int> kCoreChoices = {1, 2, 4, 8, 16};
  static const std::vector<double> kCoreWeights = {0.45, 0.27, 0.15, 0.09,
                                                   0.04};
  spec.cpu_cores = kCoreChoices[rng.weighted_index(kCoreWeights)];

  // The AI companies run user-facing inference services (Sec. V-A):
  // shorter, latency-critical CPU jobs that outrank training.
  spec.user_facing = tenant.cls == TenantClass::kAiCompany &&
                     rng.bernoulli(config_.user_facing_cpu_fraction);
  const double mu = spec.user_facing ? config_.user_facing_runtime_mu
                                     : config_.cpu_runtime_mu;
  const double sigma = spec.user_facing ? config_.user_facing_runtime_sigma
                                        : config_.cpu_runtime_sigma;
  const double runtime =
      std::clamp(rng.lognormal(mu, sigma), config_.cpu_runtime_lo_s,
                 config_.cpu_runtime_hi_s);
  spec.cpu_work_core_s = runtime * spec.cpu_cores;

  if (rng.bernoulli(config_.heavy_bw_cpu_fraction)) {
    // HEAT-like bandwidth hog (Sec. VI-E: ~0.5% of CPU jobs).
    spec.mem_bw_gbps = rng.uniform(20.0, 60.0);
    spec.bw_bound_fraction = 0.85;
    spec.llc_mb = rng.uniform(8.0, 16.0);
  } else {
    spec.mem_bw_gbps = spec.cpu_cores * rng.uniform(0.2, 0.6);
    spec.bw_bound_fraction = 0.15;
    spec.llc_mb = spec.cpu_cores * 0.8;
  }
  return spec;
}

std::vector<JobSpec> TraceGenerator::generate() const {
  util::Rng root(config_.seed);
  util::Rng arrivals_rng = root.fork(1);
  util::Rng gpu_rng = root.fork(2);
  util::Rng cpu_rng = root.fork(3);
  util::Rng tenant_rng = root.fork(4);

  // Tenant selection weights per job kind. The research lab dominates GPU
  // submissions; companies and CPU-only users dominate CPU submissions
  // (Fig. 2a).
  std::vector<double> gpu_weights;
  std::vector<double> cpu_weights;
  for (const auto& t : config_.tenants) {
    double gw = 0.0;
    double cw = 0.0;
    switch (t.cls) {
      case TenantClass::kResearchLab:
        gw = 4.0 * t.submit_weight;
        cw = 0.3 * t.submit_weight;
        break;
      case TenantClass::kAiCompany:
        gw = 1.0 * t.submit_weight;
        cw = 1.5 * t.submit_weight;
        break;
      case TenantClass::kCpuOnly:
        gw = 0.0;
        cw = 2.0 * t.submit_weight;
        break;
    }
    gpu_weights.push_back(gw);
    cpu_weights.push_back(cw);
  }

  std::vector<JobSpec> trace;
  trace.reserve(static_cast<size_t>(config_.cpu_jobs + config_.gpu_jobs));

  // One perf model for the whole trace: its memo returns the bits a fresh
  // model computes, and most GPU jobs share a (model, config).
  const perfmodel::TrainPerf perf;
  // GPU arrivals are flat over the month; CPU arrivals are diurnal (Fig. 1).
  for (double t : arrival_times(arrivals_rng, config_.gpu_jobs,
                                /*diurnal=*/false)) {
    const auto& tenant =
        config_.tenants[tenant_rng.weighted_index(gpu_weights)];
    trace.push_back(make_gpu_job(gpu_rng, tenant, t, perf));
  }
  for (double t : arrival_times(arrivals_rng, config_.cpu_jobs,
                                /*diurnal=*/true)) {
    const auto& tenant =
        config_.tenants[tenant_rng.weighted_index(cpu_weights)];
    trace.push_back(make_cpu_job(cpu_rng, tenant, t));
  }

  std::stable_sort(trace.begin(), trace.end(),
                   [](const JobSpec& a, const JobSpec& b) {
                     return a.submit_time < b.submit_time;
                   });
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = static_cast<cluster::JobId>(i + 1);
  }
  return trace;
}

double TraceGenerator::ideal_gpu_runtime(const JobSpec& spec,
                                         const perfmodel::TrainPerf& perf) {
  CODA_ASSERT(spec.is_gpu_job());
  const int opt = perf.optimal_cores(spec.model, spec.train_config);
  return spec.iterations * perf.iter_time(spec.model, spec.train_config, opt);
}

TraceSummary TraceGenerator::summarize(const std::vector<JobSpec>& trace) {
  TraceSummary s;
  int req12 = 0;
  int req_gt10 = 0;
  int gt1h = 0;
  int gt2h = 0;
  int multi_node = 0;
  int heavy = 0;
  int user_facing = 0;
  const perfmodel::TrainPerf perf;
  for (const auto& spec : trace) {
    if (spec.is_gpu_job()) {
      ++s.gpu_jobs;
      // Fig. 2d / Sec. VI-D: the 1-2 bucket is a per-GPU ratio ("one or
      // two cores for each GPU"); the >10 bucket is an absolute core count.
      if (spec.requested_cpus <=
          2 * spec.train_config.gpus_per_node) {
        ++req12;
      }
      if (spec.requested_cpus > 10) {
        ++req_gt10;
      }
      const double runtime = ideal_gpu_runtime(spec, perf);
      if (runtime > 3600.0) {
        ++gt1h;
      }
      if (runtime > 7200.0) {
        ++gt2h;
      }
      if (spec.train_config.nodes > 1) {
        ++multi_node;
      }
    } else {
      ++s.cpu_jobs;
      if (spec.mem_bw_gbps > 15.0) {
        ++heavy;
      }
      if (spec.user_facing) {
        ++user_facing;
      }
    }
  }
  if (s.gpu_jobs > 0) {
    s.frac_gpu_req_1_2_cores = static_cast<double>(req12) / s.gpu_jobs;
    s.frac_gpu_req_gt10_cores = static_cast<double>(req_gt10) / s.gpu_jobs;
    s.frac_gpu_runtime_gt_1h = static_cast<double>(gt1h) / s.gpu_jobs;
    s.frac_gpu_runtime_gt_2h = static_cast<double>(gt2h) / s.gpu_jobs;
    s.frac_gpu_multi_node = static_cast<double>(multi_node) / s.gpu_jobs;
  }
  if (s.cpu_jobs > 0) {
    s.frac_heavy_bw_cpu = static_cast<double>(heavy) / s.cpu_jobs;
    s.frac_user_facing_cpu = static_cast<double>(user_facing) / s.cpu_jobs;
  }
  return s;
}

}  // namespace coda::workload
