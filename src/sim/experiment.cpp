#include "sim/experiment.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/drf.h"
#include "sched/fifo.h"
#include "util/assert.h"
#include "util/rng.h"

namespace coda::sim {

const char* to_string(Policy policy) {
  switch (policy) {
    case Policy::kFifo:
      return "FIFO";
    case Policy::kDrf:
      return "DRF";
    case Policy::kCoda:
      return "CODA";
  }
  return "?";
}

util::Status validate_config(const ExperimentConfig& config) {
  const auto& cluster = config.engine.cluster;
  const struct {
    bool holds;
    const char* what;
  } checks[] = {
      {cluster.node_count > 0, "nodes must be > 0"},
      {cluster.node.cores >= 0, "node.cores must be >= 0"},
      {cluster.node.gpus >= 0, "node.gpus must be >= 0"},
      {cluster.cpu_only_node_count >= 0, "cpu_only_nodes must be >= 0"},
      {cluster.cpu_only_node.cores >= 0, "cpu_only_node.cores must be >= 0"},
      {cluster.cpu_only_node.gpus == 0, "cpu_only_node.gpus must be 0"},
      {cluster.mba_fraction >= 0.0 && cluster.mba_fraction <= 1.0,
       "mba_fraction must be in [0, 1]"},
      {config.engine.metrics_period_s > 0.0, "metrics_period must be > 0"},
      {config.coda.eliminator.check_period_s > 0.0,
       "eliminator.check_period_s must be > 0"},
      {!config.failures.enabled() || config.failures.outage_s > 0.0,
       "failures.outage_s must be > 0 when node_mtbf_s > 0"},
  };
  for (const auto& check : checks) {
    if (!check.holds) {
      return util::Error{util::ErrorCode::kInvalidArgument,
                         std::string("invalid config: ") + check.what};
    }
  }
  return util::Status::Ok();
}

workload::TraceConfig standard_week_trace(uint64_t seed) {
  workload::TraceConfig cfg;
  cfg.seed = seed;
  cfg.duration_s = 7.0 * 86400.0;
  // One week. The CPU-job count follows the paper's daily rate (75,000 per
  // month); the GPU-job count is scaled so the 400-GPU cluster reaches the
  // paper's saturation regime — their absolute count (25,000/month) reflects
  // private job sizes we cannot observe, and an under-loaded cluster would
  // make every scheduler look alike.
  cfg.cpu_jobs = 17500;
  cfg.gpu_jobs = 8750;
  return cfg;
}

PolicyScheduler make_policy_scheduler(Policy policy,
                                      const ExperimentConfig& config) {
  PolicyScheduler out;
  switch (policy) {
    case Policy::kFifo:
      out.scheduler = std::make_unique<sched::FifoScheduler>();
      break;
    case Policy::kDrf:
      out.scheduler = std::make_unique<sched::DrfScheduler>();
      break;
    case Policy::kCoda: {
      auto owned = std::make_unique<core::CodaScheduler>(config.coda);
      out.coda = owned.get();
      out.scheduler = std::move(owned);
      break;
    }
  }
  out.scheduler->set_retry_policy(config.retry);
  return out;
}

Session Session::start(Policy policy,
                       const std::vector<workload::JobSpec>& trace,
                       const ExperimentConfig& config) {
  Session s;
  s.policy = policy;
  s.config = config;
  s.scheduler = make_policy_scheduler(policy, config);
  if (s.config.horizon_s <= 0.0) {
    for (const auto& spec : trace) {
      s.config.horizon_s = std::max(s.config.horizon_s, spec.submit_time);
    }
  }
  s.engine = std::make_unique<ClusterEngine>(config.engine,
                                             s.scheduler.scheduler.get());
  s.engine->load_trace(trace);
  s.submitted = trace.size();
  schedule_failures(s.engine.get(), config, s.config.horizon_s);
  return s;
}

void Session::inject(const workload::JobSpec& spec, double t) {
  engine->inject(spec, t);
  ++submitted;
}

double Session::injection_instant() {
  simcore::Simulator& sim = engine->sim();
  for (;;) {
    const double vt =
        std::nextafter(sim.now(), std::numeric_limits<double>::infinity());
    if (sim.next_event_time() > vt) {
      return vt;
    }
    engine->run_until(vt);
  }
}

ExperimentReport Session::finish() {
  const double horizon = config.horizon_s;
  engine->run_until(horizon);
  engine->drain(horizon + config.drain_slack_s);
  return build_report(policy, *engine, submitted, horizon, scheduler.coda);
}

ExperimentReport run_experiment(Policy policy,
                                const std::vector<workload::JobSpec>& trace,
                                const ExperimentConfig& config) {
  return Session::start(policy, trace, config).finish();
}

void schedule_failures(ClusterEngine* engine, const ExperimentConfig& config,
                       double horizon) {
  if (!config.failures.enabled()) {
    return;
  }
  // Poisson node churn over the trace window. Overlapping outages on one
  // node collapse harmlessly: fail_node/recover_node reject the redundant
  // transition and schedule_node_outage ignores the status.
  util::Rng rng(config.failures.seed);
  const int nodes = config.engine.cluster.node_count;
  double t = rng.exponential(1.0 / config.failures.node_mtbf_s);
  while (t < horizon) {
    const auto node =
        static_cast<cluster::NodeId>(rng.uniform_int(0, nodes - 1));
    engine->schedule_node_outage(node, t, config.failures.outage_s);
    t += rng.exponential(1.0 / config.failures.node_mtbf_s);
  }
}

ExperimentReport build_report(Policy policy, const ClusterEngine& engine,
                              size_t submitted, double horizon,
                              const core::CodaScheduler* coda) {
  ExperimentReport report;
  report.scheduler = to_string(policy);
  report.horizon_s = horizon;
  report.submitted = submitted;
  report.completed = engine.finished_jobs();
  report.abandoned = engine.abandoned_jobs();
  report.node_failures = engine.node_failures();
  report.events_dispatched = engine.sim().dispatched();

  const auto& metrics = engine.metrics();
  report.gpu_active_series = metrics.series("gpu_active_rate");
  report.gpu_util_series = metrics.series("gpu_util_active");
  report.cpu_active_series = metrics.series("cpu_active_rate");
  report.cpu_util_series = metrics.series("cpu_util_active");
  report.gpu_active_rate =
      report.gpu_active_series.time_weighted_mean(0.0, horizon);
  report.gpu_util_active =
      report.gpu_util_series.time_weighted_mean(0.0, horizon);
  report.gpu_util_overall = report.gpu_active_rate * report.gpu_util_active;
  report.cpu_active_rate =
      report.cpu_active_series.time_weighted_mean(0.0, horizon);
  report.cpu_util_active =
      report.cpu_util_series.time_weighted_mean(0.0, horizon);
  report.frag_rate =
      metrics.series("gpu_frag_rate").time_weighted_mean(0.0, horizon);
  report.frag_case2_rate =
      metrics.series("gpu_frag_case2_rate").time_weighted_mean(0.0, horizon);

  // Conditional metrics over samples with a GPU-job backlog (the metric
  // ticks are aligned across series, so pair by index).
  const auto& pending_gpu = metrics.series("pending_gpu_jobs");
  const auto& frag = metrics.series("gpu_frag_rate");
  CODA_ASSERT(pending_gpu.size() == report.gpu_active_series.size());
  double active_sum = 0.0;
  double frag_sum = 0.0;
  size_t queued_samples = 0;
  size_t window_samples = 0;
  for (size_t i = 0; i < pending_gpu.size(); ++i) {
    if (pending_gpu.at(i).t > horizon) {
      break;
    }
    ++window_samples;
    if (pending_gpu.at(i).value > 0.0) {
      active_sum += report.gpu_active_series.at(i).value;
      frag_sum += frag.at(i).value;
      ++queued_samples;
    }
  }
  if (queued_samples > 0) {
    report.gpu_active_when_queued =
        active_sum / static_cast<double>(queued_samples);
    report.frag_when_queued = frag_sum / static_cast<double>(queued_samples);
  }
  if (window_samples > 0) {
    report.queued_time_fraction =
        static_cast<double>(queued_samples) / window_samples;
  }

  const double end = engine.sim().now();
  report.records.reserve(engine.records().size());
  for (const auto& [id, record] : engine.records()) {
    report.records.push_back(record);
    report.evictions += record.evict_count;
    report.restarts += record.restart_count;
    report.busy_gpu_s += record.busy_gpu_s;
    report.busy_core_s += record.busy_core_s;
    report.wasted_gpu_s += record.wasted_gpu_s;
    report.wasted_core_s += record.wasted_core_s;
    // Queueing time until first start; censor at the end of the run for
    // jobs that never started.
    const double queue = record.first_start_time >= 0.0
                             ? record.first_start_time - record.submit_time
                             : end - record.submit_time;
    if (record.spec.is_gpu_job()) {
      report.gpu_queue_times.push_back(queue);
    } else {
      report.cpu_queue_times.push_back(queue);
    }
    report.queue_by_tenant[record.spec.tenant].push_back(queue);
  }

  if (report.busy_gpu_s > 0.0) {
    report.gpu_goodput = 1.0 - report.wasted_gpu_s / report.busy_gpu_s;
  }
  if (report.busy_core_s > 0.0) {
    report.cpu_goodput = 1.0 - report.wasted_core_s / report.busy_core_s;
  }

  if (coda != nullptr) {
    report.tuning_outcomes = coda->tuning_outcomes();
    report.eliminator_stats = coda->eliminator_stats();
    report.preemptions = coda->preemptions();
    report.migrations = coda->migrations();
  }
  return report;
}

}  // namespace coda::sim
