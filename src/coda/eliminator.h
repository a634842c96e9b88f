// Real-time contention eliminator (paper Sec. V-D).
//
// Watches every node's total memory bandwidth (simulated Intel MBM). When a
// node crosses the threshold (75% of capacity by default) AND a co-located
// DNN training job's GPU utilization has dropped below what its current
// allocation should deliver, the eliminator throttles the node's CPU jobs:
// an MBA bandwidth cap on capable nodes, or halving the CPU job's cores on
// nodes without MBA. DNN jobs are never throttled (they have priority and
// do not contend with each other severely, Sec. IV-C).
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "cluster/cluster.h"
#include "perfmodel/train_perf.h"
#include "sched/scheduler.h"
#include "telemetry/mbm.h"
#include "util/fields.h"

namespace coda::state {
class Writer;
class Reader;
}  // namespace coda::state

namespace coda::core {

struct EliminatorConfig {
  bool enabled = true;
  double check_period_s = 10.0;
  double bw_threshold = 0.75;        // fraction of node capacity (Sec. V-D)
  double util_drop_tolerance = 0.03; // GPU util this far below expectation
                                     // counts as "dropped"
  double mba_throttle_factor = 0.5;  // cap = achieved bandwidth x factor

  // Extension beyond the paper (its throttles are permanent for the job's
  // lifetime): release MBA caps and restore halved cores once the node's
  // pressure falls below `release_threshold`. Exercised by
  // bench_ext_throttle_release.
  bool release_when_calm = false;
  double release_threshold = 0.55;
};

// Counters exposed for the Sec. VI-E evaluation.
struct EliminatorStats {
  int checks = 0;
  int nodes_over_threshold = 0;
  int mba_throttles = 0;
  int core_halvings = 0;
  int releases = 0;  // caps cleared / cores restored (extension)

  // Snapshot `elim_stats` rows and the report's `eliminator` row.
  friend auto fields(util::FieldsOf<EliminatorStats> auto& s) {
    return std::tie(s.checks, s.nodes_over_threshold, s.mba_throttles,
                    s.core_halvings, s.releases);
  }
};

class ContentionEliminator {
 public:
  // `expected_util` must return the utilization a GPU job should reach with
  // its current core allocation absent contention (the engine computes it
  // from the performance model); `current_cpu_cores` returns a CPU job's
  // core count on a node.
  // `on_cpu_resize(job, node, new_cores)` fires after a successful
  // core-halving so the owning scheduler can update its accounting.
  using CpuResizeCallback =
      std::function<void(cluster::JobId, cluster::NodeId, int)>;
  // Marks jobs the eliminator must never throttle (user-facing inference,
  // Sec. V-A). Optional; nullptr means "no exempt jobs".
  using UserFacingPredicate = std::function<bool(cluster::JobId)>;

  ContentionEliminator(const EliminatorConfig& config,
                       const sched::SchedulerEnv* env,
                       CpuResizeCallback on_cpu_resize = nullptr,
                       UserFacingPredicate is_user_facing = nullptr)
      : config_(config),
        env_(env),
        on_cpu_resize_(std::move(on_cpu_resize)),
        is_user_facing_(std::move(is_user_facing)) {
    // check_node acts only at or above bw_threshold: the per-pass screen
    // need list nothing below it.
    if (env_->set_pressure_floor) {
      env_->set_pressure_floor(config_.bw_threshold);
    }
  }

  const EliminatorConfig& config() const { return config_; }
  const EliminatorStats& stats() const { return stats_; }

  // One monitoring pass over every node (call from a periodic simulator
  // event). `expected_util(job)` is the no-contention utilization reference.
  void check_all(
      const std::function<double(cluster::JobId)>& expected_util);

  // Forgets per-job bookkeeping when a job leaves its node for any reason
  // (finish, failure eviction, scheduler abort). Clears a still-live MBA
  // cap so no throttle outlives the job.
  void forget_job(cluster::JobId job);

  // Whether the eliminator currently holds a throttle record for `job` —
  // test hook for the eviction/cleanup paths.
  bool is_throttled(cluster::JobId job) const {
    return throttled_.count(job) > 0;
  }

  // Snapshot support: stats counters and live throttle records. The MBA
  // caps themselves live in the engine's controller and are restored there.
  void save_state(state::Writer* w) const;
  void load_state(state::Reader* r);

 private:
  // `screened_pressure` is the node's pressure as sampled by the pass's
  // batched screen (or a live re-probe once the pass has mutated state).
  // Both return whether they changed cluster state — a cap set, a resize —
  // which forces later nodes in the same pass back onto live probes.
  bool check_node(const cluster::Node& node,
                  const std::function<double(cluster::JobId)>& expected_util,
                  double screened_pressure);
  bool release_node(const cluster::Node& node, double screened_pressure);

  // Jobs this eliminator has acted on, for the release extension.
  struct ThrottleRecord {
    cluster::NodeId node = 0;
    bool via_mba = false;
    int original_cores = 0;  // core-halving path only

    // An `et` row after the job id.
    friend auto fields(util::FieldsOf<ThrottleRecord> auto& t) {
      return std::tie(t.node, t.via_mba, t.original_cores);
    }
  };

  EliminatorConfig config_;
  const sched::SchedulerEnv* env_;
  CpuResizeCallback on_cpu_resize_;
  UserFacingPredicate is_user_facing_;
  EliminatorStats stats_;
  std::map<cluster::JobId, ThrottleRecord> throttled_;
  // Probe scratch reused across check/release passes: the eliminator samples
  // every node every check period, and each sample used to allocate a fresh
  // jobs vector.
  telemetry::NodeBandwidthSample sample_scratch_;
  // Per-pass rows: the batched screen (BandwidthSource::pressure_screen,
  // parallel (id, pressure) rows for the nodes at or above bw_threshold),
  // plus, under release_when_calm, the nodes holding throttle records.
  std::vector<cluster::NodeId> screen_ids_;
  std::vector<double> pressure_scratch_;
};

}  // namespace coda::core
