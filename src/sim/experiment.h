// One-call experiment runner: replay a trace under a scheduling policy and
// collect the aggregates the paper's evaluation reports. Shared by the
// benchmark binaries, the examples, and the integration tests.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coda/coda_scheduler.h"
#include "sim/engine.h"
#include "util/result.h"
#include "workload/trace_gen.h"

namespace coda::sim {

enum class Policy { kFifo = 0, kDrf, kCoda };

const char* to_string(Policy policy);

// Random node-outage injection over the trace window. Failure instants are
// Poisson (cluster-wide MTBF), the struck node uniform, and everything is
// drawn from `seed` — the same config replays identically.
struct FailureConfig {
  double node_mtbf_s = 0.0;  // mean time between failures; 0 disables
  double outage_s = 600.0;   // downtime per failure
  uint64_t seed = 2024;

  bool enabled() const { return node_mtbf_s > 0.0; }
};

struct ExperimentConfig {
  EngineConfig engine;
  core::CodaConfig coda;     // used when policy == kCoda
  double horizon_s = 0.0;    // trace window end; 0 => max submit time
  double drain_slack_s = 2.0 * 86400.0;  // extra time to let jobs finish
  sched::RetryPolicy retry;  // eviction backoff/abandon (any policy)
  FailureConfig failures;    // node churn injected over [0, horizon]
};

// Every ExperimentConfig field, listed once. The journal header writer and
// parser (service/journal.cpp) and experiment_cache_key (report_cache.cpp)
// expand this table, so none of them can miss a knob; the sizeof tripwires
// in tests/config_coverage_test.cpp fail the build when a config struct
// grows a field until it is listed here.
//
// V1(key, member): the seven fields a v1 journal header carried, under
// their legacy header keys, in header order. V2(key, member): every other
// field, one `config.` header line each since v2. `member` is a path inside
// ExperimentConfig; its type picks the wire encoding (hexfloat double,
// decimal int/u64, 0/1 bool, the allocator SearchMode's enum integer).
#define CODA_EXPERIMENT_CONFIG_FIELDS(V1, V2)                                 \
  V1("nodes", engine.cluster.node_count)                                     \
  V1("metrics_period", engine.metrics_period_s)                              \
  V1("frag_min_cpus", engine.frag_min_cpus)                                  \
  V1("noise_stddev", engine.util_noise_stddev)                               \
  V1("noise_seed", engine.noise_seed)                                        \
  V1("horizon", horizon_s)                                                   \
  V1("drain_slack", drain_slack_s)                                           \
  V2("config.cluster.node.cores", engine.cluster.node.cores)                 \
  V2("config.cluster.node.gpus", engine.cluster.node.gpus)                   \
  V2("config.cluster.node.mem_bw_gbps", engine.cluster.node.mem_bw_gbps)     \
  V2("config.cluster.node.pcie_gbps", engine.cluster.node.pcie_gbps)         \
  V2("config.cluster.node.llc_mb", engine.cluster.node.llc_mb)               \
  V2("config.cluster.node.mba_capable", engine.cluster.node.mba_capable)     \
  V2("config.cluster.mba_fraction", engine.cluster.mba_fraction)             \
  V2("config.cluster.cpu_only_nodes", engine.cluster.cpu_only_node_count)    \
  V2("config.cluster.cpu_only_node.cores",                                   \
     engine.cluster.cpu_only_node.cores)                                     \
  V2("config.cluster.cpu_only_node.gpus", engine.cluster.cpu_only_node.gpus) \
  V2("config.cluster.cpu_only_node.mem_bw_gbps",                             \
     engine.cluster.cpu_only_node.mem_bw_gbps)                               \
  V2("config.cluster.cpu_only_node.pcie_gbps",                               \
     engine.cluster.cpu_only_node.pcie_gbps)                                 \
  V2("config.cluster.cpu_only_node.llc_mb",                                  \
     engine.cluster.cpu_only_node.llc_mb)                                    \
  V2("config.cluster.cpu_only_node.mba_capable",                             \
     engine.cluster.cpu_only_node.mba_capable)                               \
  V2("config.engine.record_events", engine.record_events)                    \
  V2("config.engine.incremental_recompute", engine.incremental_recompute)    \
  V2("config.retry.enabled", retry.enabled)                                  \
  V2("config.retry.backoff_base_s", retry.backoff_base_s)                    \
  V2("config.retry.backoff_max_s", retry.backoff_max_s)                      \
  V2("config.retry.max_retries", retry.max_retries)                          \
  V2("config.failures.node_mtbf_s", failures.node_mtbf_s)                    \
  V2("config.failures.outage_s", failures.outage_s)                          \
  V2("config.failures.seed", failures.seed)                                  \
  V2("config.coda.allocator.search_mode", coda.allocator.search_mode)        \
  V2("config.coda.allocator.profile_step_s", coda.allocator.profile_step_s)  \
  V2("config.coda.allocator.max_profile_steps",                              \
     coda.allocator.max_profile_steps)                                       \
  V2("config.coda.allocator.improvement_eps",                                \
     coda.allocator.improvement_eps)                                         \
  V2("config.coda.allocator.plateau_util", coda.allocator.plateau_util)      \
  V2("config.coda.allocator.min_cores", coda.allocator.min_cores)            \
  V2("config.coda.allocator.max_cores", coda.allocator.max_cores)            \
  V2("config.coda.eliminator.enabled", coda.eliminator.enabled)              \
  V2("config.coda.eliminator.check_period_s",                                \
     coda.eliminator.check_period_s)                                         \
  V2("config.coda.eliminator.bw_threshold", coda.eliminator.bw_threshold)    \
  V2("config.coda.eliminator.util_drop_tolerance",                           \
     coda.eliminator.util_drop_tolerance)                                    \
  V2("config.coda.eliminator.mba_throttle_factor",                           \
     coda.eliminator.mba_throttle_factor)                                    \
  V2("config.coda.eliminator.release_when_calm",                             \
     coda.eliminator.release_when_calm)                                      \
  V2("config.coda.eliminator.release_threshold",                             \
     coda.eliminator.release_threshold)                                      \
  V2("config.coda.reserved_cores_per_node", coda.reserved_cores_per_node)    \
  V2("config.coda.four_gpu_node_fraction", coda.four_gpu_node_fraction)      \
  V2("config.coda.reservation_update_period_s",                              \
     coda.reservation_update_period_s)                                       \
  V2("config.coda.multi_array_enabled", coda.multi_array_enabled)            \
  V2("config.coda.cpu_preemption_enabled", coda.cpu_preemption_enabled)      \
  V2("config.coda.static_bw_cap_gbps", coda.static_bw_cap_gbps)

// The preconditions the engine asserts on when it builds a session from
// `config` (cluster shape, periodic-event periods, outage length), checked
// where a config enters from outside (journal and snapshot headers, codad
// flags) so a bad value is a kInvalidArgument error instead of an abort.
util::Status validate_config(const ExperimentConfig& config);

// Aggregated outcome of one replay.
struct ExperimentReport {
  std::string scheduler;
  size_t submitted = 0;
  size_t completed = 0;
  // Simulator events this replay dispatched; perf accounting (events/sec).
  size_t events_dispatched = 0;
  double horizon_s = 0.0;

  // Failure & recovery accounting — all zero (goodput 1) without failures.
  size_t abandoned = 0;    // retry budget exhausted, never completed
  int node_failures = 0;
  int evictions = 0;       // engine-forced job evictions
  int restarts = 0;        // successful post-eviction starts
  double busy_gpu_s = 0.0;     // GPU-seconds spent running
  double busy_core_s = 0.0;    // core-seconds spent running
  double wasted_gpu_s = 0.0;   // subset discarded by evictions
  double wasted_core_s = 0.0;
  double gpu_goodput = 1.0;    // 1 - wasted_gpu_s / busy_gpu_s
  double cpu_goodput = 1.0;    // 1 - wasted_core_s / busy_core_s

  // Fig. 10 headline metrics, time-weighted over the trace window.
  double gpu_active_rate = 0.0;
  double gpu_util_active = 0.0;   // per active GPU (paper's utilization)
  double gpu_util_overall = 0.0;  // active rate x utilization
  double cpu_active_rate = 0.0;
  double cpu_util_active = 0.0;
  double frag_rate = 0.0;         // Sec. VI-C case 1 (CPU-starved GPUs)
  double frag_case2_rate = 0.0;   // Sec. VI-C case 2 (GPU adjacency)
  // Same metrics restricted to samples where GPU jobs were queued — the
  // paper's "when the jobs queue up for the resource allocation" framing.
  double gpu_active_when_queued = 0.0;
  double frag_when_queued = 0.0;
  double queued_time_fraction = 0.0;  // fraction of samples with a backlog

  // Queueing samples (Fig. 11/12); censored jobs (never started) count with
  // their waiting time up to the horizon.
  std::vector<double> gpu_queue_times;
  std::vector<double> cpu_queue_times;
  std::map<cluster::TenantId, std::vector<double>> queue_by_tenant;

  // Per-job drill-down (Fig. 13) and the CODA audit trail (Fig. 14/Tbl. II).
  std::vector<JobRecord> records;
  std::vector<core::CodaScheduler::TuningOutcome> tuning_outcomes;
  core::EliminatorStats eliminator_stats;
  int preemptions = 0;
  int migrations = 0;

  // Time series kept for trend plots (Fig. 1 / Fig. 10 curves).
  util::TimeSeries gpu_active_series;
  util::TimeSeries gpu_util_series;
  util::TimeSeries cpu_active_series;
  util::TimeSeries cpu_util_series;
};

// A scheduler instantiated for `policy`, plus a typed view of it when the
// policy is CODA (the report pulls tuning/eliminator telemetry off it).
struct PolicyScheduler {
  std::unique_ptr<sched::Scheduler> scheduler;
  core::CodaScheduler* coda = nullptr;  // non-null iff policy == kCoda
};

// One replay session, assembled in one place: run_experiment, codad's
// shards, journal replay and snapshot restore (state::restore_session) all
// build and finish theirs here, so live == replay == restore by design.
struct Session {
  Policy policy = Policy::kCoda;
  ExperimentConfig config;  // horizon_s resolved: else the last submit time
  PolicyScheduler scheduler;  // before engine, which points into it
  std::unique_ptr<ClusterEngine> engine;
  size_t submitted = 0;  // jobs handed to the engine

  // make_policy_scheduler -> ClusterEngine -> load_trace ->
  // schedule_failures.
  static Session start(Policy policy,
                       const std::vector<workload::JobSpec>& trace,
                       const ExperimentConfig& config);
  // Hands one more job to the engine, arriving at `t`.
  void inject(const workload::JobSpec& spec, double t);
  // The instant a live submission is injected at: nextafter(now()), once
  // every event queued at or before that instant has been dispatched
  // (repeated until none is left). The job then arrives strictly after
  // every dispatched event and strictly before every queued one, exactly
  // where a replay that pre-posts its arrival dispatches it. With nothing
  // queued that early it dispatches nothing, so a second call before the
  // clock moves returns the same instant.
  double injection_instant();
  // run_until(horizon) -> drain(horizon + drain_slack_s) -> build_report.
  ExperimentReport finish();
};

// Replays `trace` under `policy`: Session::start, then finish.
ExperimentReport run_experiment(Policy policy,
                                const std::vector<workload::JobSpec>& trace,
                                const ExperimentConfig& config = {});

// Session's steps, public only because perfbench assembles its own
// sessions around a tracing scheduler proxy.
//
// Pre-posts the Poisson node-outage schedule drawn from config.failures
// over [0, horizon] (no-op when failures are disabled).
void schedule_failures(ClusterEngine* engine, const ExperimentConfig& config,
                       double horizon);
PolicyScheduler make_policy_scheduler(Policy policy,
                                      const ExperimentConfig& config);
// Aggregates a finished engine (run to `horizon` and drained); censoring
// is at sim().now(). `submitted` counts every job handed to the engine.
ExperimentReport build_report(Policy policy, const ClusterEngine& engine,
                              size_t submitted, double horizon,
                              const core::CodaScheduler* coda);

// The evaluation's standard downscaled trace: one week at the paper's daily
// job rate (the full month runs in the same shape but 4x slower), on the
// 80-node / 400-GPU cluster.
workload::TraceConfig standard_week_trace(uint64_t seed = 42);

}  // namespace coda::sim
