// The CODA scheduling system (paper Sec. V): multi-array job scheduler +
// adaptive CPU allocator + real-time contention eliminator behind the common
// Scheduler interface.
//
// Resources are split into a CPU array and a GPU array; the GPU array
// reserves CPU cores on every node for GPU jobs and is itself split into a
// 4-GPU sub-array (jobs needing >= 4 GPUs) and a 1-GPU sub-array. DRF is
// applied *inside* each array (by CPU usage in the CPU array, by GPU usage
// in the GPU arrays). Bursty CPU jobs may borrow idle reserved cores and are
// aborted back to the head of their queue when a GPU job needs the cores;
// 1-GPU jobs may borrow 4-GPU sub-array nodes and are live-migrated out when
// a 4-GPU job arrives (container migration keeps their progress).
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "coda/allocator.h"
#include "coda/eliminator.h"
#include "coda/history.h"
#include "perfmodel/train_perf.h"
#include "sched/placement.h"
#include "sched/scheduler.h"
#include "util/fields.h"

namespace coda::core {

struct CodaConfig {
  AllocatorConfig allocator;
  EliminatorConfig eliminator;

  // CPU cores reserved for GPU jobs on every node ("derived from historical
  // statistical information"; this is the cold-start value).
  int reserved_cores_per_node = 20;
  // Fraction of nodes assigned to the 4-GPU sub-array (cold-start value).
  double four_gpu_node_fraction = 0.40;
  // Re-derive both from the history log this often (0 disables).
  double reservation_update_period_s = 6.0 * 3600.0;

  // Ablation switches. With multi_array_enabled=false all nodes form one
  // array with no reservation (adaptive allocation + eliminator still work).
  bool multi_array_enabled = true;
  bool cpu_preemption_enabled = true;

  // Kelp-style *static* bandwidth partitioning (related-work baseline): cap
  // every CPU job at this many GB/s on MBA-capable nodes the moment it
  // starts, regardless of observed contention. 0 disables. Compare against
  // the paper's reactive eliminator with bench_ext_static_partition.
  double static_bw_cap_gbps = 0.0;
};

class CodaScheduler : public sched::Scheduler {
 public:
  explicit CodaScheduler(const CodaConfig& config);

  const char* name() const override { return "CODA"; }

  void attach(const sched::SchedulerEnv& env) override;
  void submit(const workload::JobSpec& spec) override;
  void on_job_finished(const workload::JobSpec& spec) override;
  void on_job_evicted(const workload::JobSpec& spec) override;
  void kick() override;

  // ---- introspection (tests, benches) ----
  const HistoryLog& history() const { return history_; }
  const EliminatorStats& eliminator_stats() const {
    return eliminator_->stats();
  }
  const ContentionEliminator& eliminator() const { return *eliminator_; }

  // Audit of the adaptive allocation, one entry per started GPU job
  // (Fig. 14 / Table II): what the owner asked for vs what CODA converged
  // to, and the profiling steps spent.
  struct TuningOutcome {
    cluster::JobId job = 0;
    perfmodel::ModelId model = perfmodel::ModelId::kAlexnet;
    int requested_cpus = 0;
    int start_cpus = 0;
    int final_cpus = 0;
    int profile_steps = 0;

    // Snapshot `oc`/`poc` rows and report tuning-outcome rows.
    friend auto fields(util::FieldsOf<TuningOutcome> auto& o) {
      return std::tie(o.job, o.model, o.requested_cpus, o.start_cpus,
                      o.final_cpus, o.profile_steps);
    }
  };
  const std::vector<TuningOutcome>& tuning_outcomes() const {
    return tuning_outcomes_;
  }

  size_t pending_gpu_jobs() const override;
  size_t pending_cpu_jobs() const;
  size_t pending_jobs() const override {
    return pending_gpu_jobs() + pending_cpu_jobs();
  }
  std::optional<sched::Scheduler::PendingGpuDemand> min_pending_gpu_demand()
      const override;
  bool queued(cluster::JobId id) const override;
  int reclaimable_cpus(cluster::NodeId node) const override;
  int preemptions() const { return preemptions_; }
  int migrations() const { return migrations_; }

  int reserved_cores_per_node() const { return reserved_cores_; }
  bool node_in_four_array(cluster::NodeId id) const;

  // ---- snapshot support (src/state) ----
  void save_state(state::Writer* w) const override;
  void load_state(state::Reader* r, const sched::SpecMap& specs) override;
  // The eliminator and reservation ticks (each re-posts itself one period
  // on) and the tuning tick; the retry kind goes to Scheduler::on_event.
  void on_event(const simcore::EventTag& tag) override;

 private:
  // Per-array tenant queues with DRF ordering by the array's dominant
  // resource usage.
  struct ArrayState {
    std::map<cluster::TenantId, std::deque<workload::JobSpec>> queues;
    std::map<cluster::TenantId, int> usage;  // cores or GPUs, by array kind

    size_t pending() const;
    void push_back(const workload::JobSpec& spec);
    void push_front(const workload::JobSpec& spec);
    // Tenants with pending jobs ordered by ascending usage share.
    std::vector<cluster::TenantId> drf_order(int total_capacity) const;
  };

  struct RunningGpu {
    workload::JobSpec spec;
    sched::Placement placement;
    int cores_per_node = 0;
    bool four_array_job = false;   // belongs to the 4-GPU sub-array
    bool cross_borrower = false;   // 1-GPU job running on a 4-GPU node
    uint64_t generation = 0;       // invalidates stale tuning timers
    bool tuning_active = false;
    // Valid while tuning_active: the allocator's session (an `as` row) and
    // the outcome it publishes when it ends (a `poc` row).
    AdaptiveCpuAllocator::Session session;
    TuningOutcome outcome;

    // An `rg` row between the job id and the leg count; the placement
    // follows as `rgp` rows.
    friend auto fields(util::FieldsOf<RunningGpu> auto& g) {
      return std::tie(g.cores_per_node, g.four_array_job, g.cross_borrower,
                      g.generation, g.tuning_active);
    }
  };

  struct RunningCpu {
    workload::JobSpec spec;
    cluster::NodeId node = 0;
    int cores = 0;
    int borrowed_reserved = 0;     // cores taken from the GPU reservation
    uint64_t start_seq = 0;        // LIFO eviction order

    // An `rc` row after the job id.
    friend auto fields(util::FieldsOf<RunningCpu> auto& c) {
      return std::tie(c.node, c.cores, c.borrowed_reserved, c.start_seq);
    }
  };

  bool is_four_gpu_job(const workload::JobSpec& spec) const;
  ArrayState& gpu_array_for(const workload::JobSpec& spec);

  // CPU cores on `node` currently usable by the CPU array without touching
  // the (unused part of the) GPU reservation.
  int cpu_array_free_cores(const cluster::Node& node) const;
  int gpu_cores_used_on(const cluster::Node& node) const;

  // Scheduling passes.
  void schedule_gpu_array(ArrayState& array, bool four_array);
  bool try_start_gpu_job(const workload::JobSpec& spec, bool four_array);
  void schedule_cpu_array();

  // Eviction helpers.
  bool evict_cpu_borrowers_for(cluster::NodeId node, int cores_needed);
  bool migrate_cross_borrowers_for(const sched::PlacementRequest& request);
  // Evicts CPU borrowers from in-range nodes that could host `request`
  // afterwards (free GPUs suffice, free cores do not). Returns whether any
  // eviction actually happened — when none did, the follow-up placement
  // query is provably the same failure as before and is skipped.
  bool prepare_nodes_by_eviction(const sched::PlacementRequest& request,
                                 sched::IdRange range);

  // Republishes this node's reservation bias (the part of the GPU
  // reservation not consumed by GPU jobs or borrowers) into the cluster's
  // placement index, keeping the index's adjusted-cores buckets equal to
  // cpu_array_free_cores() for every node.
  void refresh_cpu_bias(cluster::NodeId node);
  void refresh_all_cpu_bias();

  void start_gpu_job(const workload::JobSpec& spec,
                     const sched::Placement& placement, int cores,
                     bool four_array, bool cross_borrower);
  void schedule_tuning_tick(cluster::JobId job, uint64_t generation);
  void on_tuning_tick(cluster::JobId job, uint64_t generation);
  // Publishes the session's outcome with the cores the job holds and
  // records its history.
  void end_tuning(RunningGpu& r);

  // The one way each kind of job leaves (finish, eviction, migration or
  // abort): its record goes, with everything the record holds of the
  // arrays and nodes. A GPU job that finishes mid-tuning ends its session;
  // any other exit drops it unpublished, since the run is void or restarts.
  void release_gpu(cluster::JobId job, bool finished);
  void release_cpu(cluster::JobId job);
  double expected_utilization(cluster::JobId job) const;
  void update_reservation_from_history();

  CodaConfig config_;
  perfmodel::TrainPerf perf_;
  HistoryLog history_;
  AdaptiveCpuAllocator allocator_;
  std::unique_ptr<ContentionEliminator> eliminator_;

  ArrayState cpu_array_;
  ArrayState four_gpu_array_;
  ArrayState one_gpu_array_;

  std::map<cluster::JobId, RunningGpu> running_gpu_;
  std::map<cluster::JobId, RunningCpu> running_cpu_;
  // Live cross-borrowers (1-GPU jobs on 4-GPU nodes). Usually zero, and
  // every blocked 4-GPU start probes for migration candidates — the counter
  // turns that probe into an O(1) no when there is nothing to migrate.
  int cross_borrower_count_ = 0;

  std::vector<TuningOutcome> tuning_outcomes_;

  // Incremental per-node accounting (kick() runs after every event; scanning
  // node allocation maps there would dominate the simulation).
  std::vector<int> gpu_cores_on_node_;       // cores held by GPU jobs
  std::vector<int> borrowed_on_node_;        // reserved cores lent to CPU jobs
  std::vector<int> cross_borrowers_on_node_; // resident cross-borrower jobs
  std::vector<std::vector<cluster::JobId>> cpu_jobs_by_node_;

  void note_cpu_job_started(const RunningCpu& rc);
  // load_state's check of the running records against the engine's
  // allocations and each array's usage rows; poisons `r` and returns false
  // at the first disagreement.
  bool check_running_records(state::Reader* r) const;
  void on_eliminator_cpu_resize(cluster::JobId job, cluster::NodeId node,
                                int new_cores);

  int reserved_cores_ = 0;
  int four_array_nodes_ = 0;  // nodes [0, four_array_nodes_) are 4-GPU array
  uint64_t next_seq_ = 0;
  uint64_t next_generation_ = 1;
  int preemptions_ = 0;
  int migrations_ = 0;

  // Sum of borrowed_on_node_: lets a blocked GPU start skip the eviction
  // pass entirely when no CPU job is borrowing reserved cores anywhere
  // (the common case — evicting nothing cannot change the earlier miss).
  int total_borrowed_ = 0;

  // Failed-shape dedup, keyed on the placement index generation. A GPU
  // shape is cached only when its whole try was pure (no eviction or
  // migration mutated anything — the generation did not move), and the
  // cache is valid only while (generation, four_array_nodes_) both match:
  // unlike FIFO/DRF, CODA's eviction overshoot can *grow* a node's free
  // cores mid-kick, so exact-state match is required rather than
  // monotonicity.
  struct FailedGpuShape {
    int nodes = 0;
    int gpus_per_node = 0;
    int cpus_per_node = 0;
    bool four_array = false;
  };
  std::vector<FailedGpuShape> failed_gpu_shapes_;
  uint64_t gpu_failed_gen_ = ~0ULL;
  int gpu_failed_four_nodes_ = -1;

  // CPU-array head requests (core counts) that found no node. Within one
  // schedule_cpu_array() pass both free and adjusted cores only shrink, so
  // failures persist across offer rounds; across kicks they stay valid
  // while the generation (which also tracks bias changes) is unchanged.
  std::vector<int> failed_cpu_reqs_;
  uint64_t cpu_failed_gen_ = ~0ULL;
  int cpu_failed_reserved_ = -1;

  // Scratch for the indexed eviction-candidate collection.
  std::vector<cluster::NodeId> eviction_scratch_;
};

}  // namespace coda::core
