// ClusterEngine: the discrete-event simulation of the multi-tenant GPU
// cluster. Binds the cluster model, the DNN performance model, the
// contention model, simulated MBM/MBA telemetry and a pluggable scheduler
// into one runnable experiment.
//
// Mechanics: jobs carry total work (training iterations for GPU jobs,
// core-seconds for CPU jobs) and progress at piecewise-constant rates. Any
// event that changes a node's population or allocations (start, finish,
// preemption, resize, MBA cap) re-resolves that node's contention, updates
// the affected jobs' rates exactly (integrating progress up to now) and
// re-schedules their completion events. Everything is deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "cluster/cluster.h"
#include "perfmodel/contention.h"
#include "sim/event_log.h"
#include "sim/job_table.h"
#include "sim/tick_terms.h"
#include "util/rng.h"
#include "perfmodel/train_perf.h"
#include "sched/scheduler.h"
#include "simcore/simulator.h"
#include "telemetry/mba.h"
#include "telemetry/mbm.h"
#include "telemetry/metrics.h"
#include "util/fields.h"
#include "workload/job.h"

namespace coda::state {
class Writer;
class Reader;
}  // namespace coda::state

namespace coda::sim {

struct EngineConfig {
  cluster::ClusterConfig cluster;
  double metrics_period_s = 60.0;
  // A node's idle GPUs count as fragmented when fewer than this many cores
  // remain free beside them (Sec. VI-C, fragmentation case 1).
  int frag_min_cpus = 2;

  // Multiplicative Gaussian noise on the GPU-utilization *probe* (the
  // nvidia-smi stand-in): real 90-second utilization samples jitter, and
  // the adaptive allocator must survive that. 0 = noiseless. Noise only
  // affects what schedulers observe, never the true progress rates, and is
  // drawn deterministically from `noise_seed`.
  double util_noise_stddev = 0.0;
  uint64_t noise_seed = 12345;

  // Record every externally-visible scheduling action into an EventLog
  // (see sim/event_log.h). Off by default: a month-long replay produces
  // hundreds of thousands of events.
  bool record_events = false;

  // Batch node recomputes behind a dirty set drained once per dispatched
  // event (and lazily before any telemetry read) instead of re-resolving
  // contention on every placement/eviction/throttle mutation. Keep on; the
  // eager path exists as the bit-exact reference for the equivalence suite
  // (tests/perf_equivalence_test.cpp) and for debugging.
  bool incremental_recompute = true;
};

class ClusterEngine : public telemetry::BandwidthSource,
                      public telemetry::GpuUtilSource,
                      public simcore::EventSink {
 public:
  // The engine registers itself as the sink of its five event kinds
  // (arrival, finish, outage fail and recover, metrics tick), then attaches
  // the scheduler, which registers its own. `restore_mode` constructs the
  // engine for state::restore_session: the metrics tick is not scheduled
  // here (the snapshot manifest re-posts it at its exact next firing time)
  // and the scheduler's attach() sees SchedulerEnv::defer_periodics so its
  // own periodics wait for the manifest too. A restore-mode engine must be
  // populated via load_state before use.
  ClusterEngine(const EngineConfig& config, sched::Scheduler* scheduler,
                bool restore_mode = false);
  ~ClusterEngine() override;

  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  // Registers a whole trace: arrival events are scheduled at each job's
  // submit_time. Call before run().
  void load_trace(const std::vector<workload::JobSpec>& trace);

  // Injects a single job arriving at time `t` (>= now). Tests/examples.
  void inject(const workload::JobSpec& spec, double t);

  // ---- failure injection ----
  // Fails a node now: every resident job is evicted (progress rolls back to
  // its last checkpoint, or to zero for non-checkpointing jobs), the
  // scheduler is notified per job via on_job_evicted, and the node accepts
  // no allocations until recover_node. Multi-node jobs die wholesale (gang
  // semantics). Fails with kFailedPrecondition if the node is already down.
  util::Status fail_node(cluster::NodeId node);
  // Brings a failed node back and kicks the scheduler.
  util::Status recover_node(cluster::NodeId node);
  // Convenience: schedules a fail at `at` and a recovery `outage_s` later.
  void schedule_node_outage(cluster::NodeId node, double at,
                            double outage_s);
  int node_failures() const { return node_failures_; }

  // Runs the simulation until simulated time `until`.
  void run_until(double until);
  // Keeps running until every submitted job finished (or was abandoned by
  // the retry policy) or `hard_cap` is hit.
  void drain(double hard_cap);

  simcore::Simulator& sim() { return sim_; }
  const simcore::Simulator& sim() const { return sim_; }
  cluster::Cluster& cluster() { return cluster_; }
  const cluster::Cluster& cluster() const { return cluster_; }
  const telemetry::MetricRegistry& metrics() const { return metrics_; }
  // Every job the engine holds: `records().find(id)` looks one up, and
  // iterating yields (id, record) pairs in ascending id order.
  const JobTable& records() const { return jobs_; }
  size_t running_jobs() const { return jobs_.running_count(); }
  bool is_running(cluster::JobId id) const {
    const JobTable::Slot* slot = jobs_.find(id);
    return slot != nullptr && slot->running();
  }
  // Arrived and not running: queued, or waiting out a retry backoff.
  bool is_pending(cluster::JobId id) const {
    const JobTable::Slot* slot = jobs_.find(id);
    return slot != nullptr && slot->pending();
  }
  size_t finished_jobs() const { return finished_count_; }
  size_t abandoned_jobs() const { return abandoned_count_; }
  const EventLog& event_log() const { return event_log_; }
  const perfmodel::TrainPerf& perf() const { return perf_; }

  // Hot-path accounting (events/sec companions; see bench_engine_micro).
  // Republished as metric counters every metrics tick.
  struct EngineStats {
    uint64_t node_recomputes = 0;      // contention re-resolutions
    uint64_t rate_updates = 0;         // per-job rate recomputations
    uint64_t reschedules = 0;          // finish events (re)scheduled
    uint64_t reschedules_skipped = 0;  // rate unchanged -> event kept
    uint64_t dirty_flushes = 0;        // dirty-set drains that did work

    friend auto fields(util::FieldsOf<EngineStats> auto& s) {
      return std::tie(s.node_recomputes, s.rate_updates, s.reschedules,
                      s.reschedules_skipped, s.dirty_flushes);
    }
  };
  const EngineStats& engine_stats() const { return stats_; }

  // ---- telemetry interfaces (simulated MBM / nvidia-smi) ----
  telemetry::NodeBandwidthSample sample(cluster::NodeId node) const override;
  void sample_into(cluster::NodeId node,
                   telemetry::NodeBandwidthSample* out) const override;
  // Reads the pressure recompute_node cached for the node (after a sync).
  double pressure(cluster::NodeId node) const override;
  // Whole-cluster screen: one sync, then exactly the ascending (id,
  // pressure) rows of occupied nodes whose pressure is at or above the floor
  // set through SchedulerEnv::set_pressure_floor (default 0: every occupied
  // node). This is the eliminator's per-tick scan; the rows come from a
  // bitmap kept current by recompute_node, so a screen costs O(rows).
  void pressure_screen(size_t node_count,
                       std::vector<cluster::NodeId>* ids,
                       std::vector<double>* out) const override;
  double gpu_utilization(cluster::JobId job) const override;

  // No-contention utilization a running GPU job should reach with its
  // current cores (the eliminator's reference); -1 for unknown jobs.
  double expected_gpu_utilization(cluster::JobId job) const;

  // ---- snapshot support (src/state, engine_state.cpp) ----
  // Serializes the complete mutable engine state at a quiescent point
  // (between event dispatches, dirty nodes flushed): job records, running
  // jobs with their exact progress/rate/eval-cache state, node allocations
  // and failure flags, contention reports, MBA caps, metrics, RNG stream
  // and the event log. Pending simulator events are NOT serialized here —
  // they go into the snapshot's manifest (simulator pending_events).
  void save_state(state::Writer* w) const;
  // Mirror image; `specs` maps job ids back to full JobSpecs (the engine
  // stores state by id). Requires a restore-mode-constructed engine with no
  // trace loaded. The caller re-posts manifest events afterwards.
  util::Status load_state(state::Reader* r,
                          const std::map<cluster::JobId,
                                         workload::JobSpec>& specs);
  // Re-posts one event of a snapshot manifest at its exact absolute time,
  // whichever layer owns its kind: a finish through arm_finish, which
  // stores its handle on the running job, any other kind straight into the
  // queue. restore_session checks each entry first (a finish needs a
  // running job, an arrival a job that has not arrived yet, a kind a
  // registered sink).
  void repost(double t, const simcore::EventTag& tag);

  // Mutable registry access for host-layer counters (the service daemon
  // accounts snapshot/restore operations next to the engine's own metrics).
  telemetry::MetricRegistry& metrics_mut() { return metrics_; }

 private:
  struct PerNodeState {
    int cpus = 0;
    perfmodel::ResourceFootprint footprint;
    perfmodel::ContentionFactors factors;
    double cpu_rate_factor = 1.0;
    double achieved_bw = 0.0;
    // One-entry eval cache: iter/util at (cpus, exact factor bits). A
    // neighbor's recompute usually leaves this job's inputs untouched, and
    // the bit-compare then skips even the perf model's memo hashtable.
    int eval_cpus = -1;
    uint64_t eval_prep_bits = 0;
    uint64_t eval_gpu_bits = 0;
    double eval_iter = 0.0;
    double eval_util = 0.0;
    double eval_prep = 0.0;  // prep-stage time

    // A `pstate` row after its node id. The footprint's job is the owning
    // RunningJob's id.
    friend auto fields(util::FieldsOf<PerNodeState> auto& s) {
      auto& fp = s.footprint;
      return std::tie(s.cpus, fp.is_gpu_job, fp.mem_bw_gbps,
                      fp.mem_bw_cap_gbps, fp.pcie_gbps, fp.llc_mb,
                      fp.bw_latency_sensitivity, fp.bw_share_dependence,
                      fp.llc_sensitivity, fp.bw_bound_fraction,
                      s.factors.prep_inflation, s.factors.gpu_inflation,
                      s.cpu_rate_factor, s.achieved_bw, s.eval_cpus,
                      s.eval_prep_bits, s.eval_gpu_bits, s.eval_iter,
                      s.eval_util, s.eval_prep);
    }
  };

  // A running job's state. Pooled: a stopped job's RunningJob is reset,
  // its vectors freed, and handed to the next start.
  struct RunningJob {
    cluster::JobId id = 0;
    // The spec in the job's JobTable slot (slots never move).
    const workload::JobSpec* spec = nullptr;
    sched::Placement placement;
    // Per-node state, sorted by node id (the recompute/serialize iteration
    // order). Flat storage: a job has at most a handful of legs, so a
    // contiguous vector beats a node-based map on every hot iteration. The
    // vector is built to its final size in start_job/load_state *before*
    // any Resident caches a PerNodeState address, and legs never change
    // count afterwards, so those addresses stay stable.
    std::vector<std::pair<cluster::NodeId, PerNodeState>> nodes;
    double gpu_util = 0.0;     // cached, refreshed on every rate update
    // The job's first cell in tick_terms_ (derived, never serialized).
    uint32_t tick_cells = 0;
    double remaining = 0.0;    // iterations (GPU) or core-seconds (CPU)
    double rate = 0.0;         // per simulated second
    double last_update = 0.0;
    simcore::EventHandle finish_event;

    // ---- checkpoint state (per running stint) ----
    // `remaining` at the last durable point: the stint's start, or the most
    // recent checkpoint boundary crossed since. Eviction rolls back here.
    double ckpt_remaining = 0.0;
    double time_since_ckpt = 0.0;  // running seconds past that point
    // Resource-seconds this stint (flushed into the JobRecord at stop),
    // and since the last durable point (the wasted-work charge on evict).
    double busy_core_s = 0.0;
    double busy_gpu_s = 0.0;
    double ckpt_busy_core_s = 0.0;
    double ckpt_busy_gpu_s = 0.0;

    // A `run` row between the id and the leg count; the placement and the
    // legs follow as `place` and `pstate` rows.
    friend auto fields(util::FieldsOf<RunningJob> auto& j) {
      return std::tie(j.remaining, j.rate, j.last_update, j.gpu_util,
                      j.ckpt_remaining, j.time_since_ckpt, j.busy_core_s,
                      j.busy_gpu_s, j.ckpt_busy_core_s, j.ckpt_busy_gpu_s);
    }
  };

  // Scheduler-facing callbacks (wired into SchedulerEnv).
  util::Status start_job(cluster::JobId id, const sched::Placement& p);
  util::Status preempt_job(cluster::JobId id, bool keep_progress);
  // Shared stop-and-release path behind preempt_job and fail_node.
  util::Status stop_running_job(cluster::JobId id, bool keep_progress);
  util::Status resize_job(cluster::JobId id, cluster::NodeId node,
                          int new_cpus);

  // The engine's event kinds (see the constructor), and the dirty-node
  // flush that runs after every dispatched event.
  void on_event(const simcore::EventTag& tag) override;
  void after_dispatch() override;

  void on_arrival(cluster::JobId id);
  void finish_job(cluster::JobId id);
  // The detach half of finish_job and stop_running_job: drops the job from
  // its nodes' resident lists, releases its allocations and MBA caps,
  // marks its nodes dirty in placement order, then returns its RunningJob
  // to the pool.
  void detach_job(JobTable::Slot& slot);
  // Scheduler gave up on an evicted job (retry cap). Closes accounting.
  void abandon_job(cluster::JobId id);

  // A reset RunningJob from the pool, and its handle.
  uint32_t acquire_running();
  RunningJob& running(const JobTable::Slot& slot) {
    return run_pool_[slot.run()];
  }
  const RunningJob& running(const JobTable::Slot& slot) const {
    return run_pool_[slot.run()];
  }

  // The job's state on `node`, or nullptr when it holds nothing there.
  // Linear scan: jobs span at most a few legs.
  static PerNodeState* node_state(RunningJob& job, cluster::NodeId node);
  // Rebuilds the job's shared-resource footprint on one node (after a start
  // or a core-count change there).
  void rebuild_footprint(RunningJob& job, cluster::NodeId node);
  // Re-resolves contention on a node and updates every resident job's rate.
  void recompute_node(cluster::NodeId node);
  // Marks a node's contention state stale after a mutation. Incremental
  // mode integrates resident jobs' progress now (rates are piecewise
  // constant, so the integration points must match the eager path bit for
  // bit) and defers the recompute to flush_dirty_nodes(); eager mode
  // recomputes immediately.
  void mark_node_dirty(cluster::NodeId node);
  // Drains the dirty set in ascending node order. Runs after every event
  // dispatch and lazily (via ensure_synced) before any read that consumes
  // rates or contention reports.
  void flush_dirty_nodes();
  // Const probes (telemetry samples, snapshot save) sync derived state
  // through this wrapper: observable semantics match the eager path, hence
  // the logical constness lives here, in one documented const_cast, instead
  // of being smeared across flush_dirty_nodes itself.
  void ensure_synced() const {
    const_cast<ClusterEngine*>(this)->flush_dirty_nodes();
  }
  void update_rate(RunningJob& job);
  // Gives a job that starts running its cells in tick_terms_: one per leg
  // for a GPU job, one (the front leg) for a CPU job.
  void add_tick_cells(RunningJob& job);
  // Writes the job's tick_terms_ cells from its current rate, cores and
  // factors: the GPU term, and every counted leg's busy cores (cpus *
  // min(1, prep / iter) on a GPU leg, cpus * cpu_rate_factor for a CPU
  // job) and cores.
  void store_tick_terms(RunningJob& job);
  // Caches the node's pressure and mem-pressure term from its report and
  // files it in or out of hot_nodes_.
  void cache_node_telemetry(cluster::NodeId node);
  // SchedulerEnv::set_pressure_floor: re-files every occupied node against
  // the new floor.
  void set_pressure_floor(double floor);
  void advance_progress(RunningJob& job);
  void reschedule_finish(RunningJob& job);
  // Posts the job's finish event at `t` and stores its handle: the one
  // place behind reschedule_finish and repost.
  void arm_finish(RunningJob& job, double t);
  double total_work_of(const workload::JobSpec& spec) const;

  void sample_metrics();

  EngineConfig config_;
  sched::Scheduler* scheduler_;
  simcore::Simulator sim_;
  cluster::Cluster cluster_;
  perfmodel::TrainPerf perf_;
  perfmodel::NodeContentionModel contention_;
  telemetry::MbaController mba_;
  telemetry::MetricRegistry metrics_;
  mutable util::Rng noise_rng_;
  EventLog event_log_;

  // Every job's record and lifecycle state, one slot per job.
  JobTable jobs_;
  // RunningJobs by handle (JobTable::Slot::run). A deque never moves its
  // elements. A free handle's RunningJob holds no vectors: kept capacity
  // would hold on to the widest gang each entry ever ran.
  std::deque<RunningJob> run_pool_;
  std::vector<uint32_t> run_free_;
  // One resident job on one node. Caches the RunningJob and PerNodeState
  // addresses so the recompute path never pays a lookup per resident.
  // Both are stable: the pool never moves a RunningJob, and a job's legs
  // are built to their final count before any Resident points at one.
  // Entries are removed before the RunningJob returns to the pool.
  struct Resident {
    cluster::JobId id = 0;
    RunningJob* job = nullptr;
    PerNodeState* state = nullptr;
  };
  // Jobs resident on each node (GPU jobs may appear on several nodes).
  std::vector<std::vector<Resident>> jobs_on_node_;
  // The metrics tick's per-job terms, one table row per running job,
  // written by store_tick_terms and folded in job-id order by
  // sample_metrics.
  TickTerms tick_terms_;
  // Ids with a non-empty resident list, maintained on the same transitions
  // as jobs_on_node_. After a flush, a node outside this set has an empty
  // contention report (mem-pressure term exactly +0.0), which lets the
  // metrics tick's mem-pressure mean add up occupied nodes only instead of
  // all N — bit-identical, since skipped nodes contribute literal zeros.
  cluster::IdBitmap occupied_nodes_;
  // Occupied nodes whose cached pressure is at or above pressure_floor_:
  // exactly the rows pressure_screen lists. recompute_node re-files a node
  // whenever its report changes, so after a flush the set is current.
  cluster::IdBitmap hot_nodes_;
  double pressure_floor_ = 0.0;
  // Last contention report per node (backs the MBM sample()).
  std::vector<perfmodel::NodeContentionReport> node_reports_;
  // Derived from node_reports_ by cache_node_telemetry whenever a report
  // changes (recompute_node, load_state): the report's achieved-bandwidth
  // row sum over capacity, in row order (what pressure() returns), and
  // min(1, mem_pressure) (the metrics tick's mem-pressure term).
  std::vector<double> node_pressure_;
  std::vector<double> node_mem_terms_;

  // Scratch buffer for recompute_node (reused across calls to avoid a
  // per-event allocation on the hottest engine path).
  std::vector<perfmodel::ResourceFootprint> footprints_scratch_;

  // Scratch for sample_metrics' index-backed fragmentation walk (candidate
  // node ids with enough free GPUs but possibly too few cores).
  std::vector<cluster::NodeId> frag_scratch_;

  // Dirty-node batching (incremental_recompute): per-node staleness bits
  // plus the insertion list flushed (sorted) once per event dispatch.
  std::vector<uint8_t> node_dirty_;
  std::vector<cluster::NodeId> dirty_nodes_;

  EngineStats stats_;

  // Metric series resolved once at construction; sample_metrics runs every
  // tick and must not pay a map<string> lookup per series.
  struct MetricSeries {
    util::TimeSeries* gpu_active = nullptr;
    util::TimeSeries* cpu_active = nullptr;
    util::TimeSeries* gpu_frag = nullptr;
    util::TimeSeries* gpu_frag_case2 = nullptr;
    util::TimeSeries* pending_jobs = nullptr;
    util::TimeSeries* pending_gpu_jobs = nullptr;
    util::TimeSeries* gpu_util_active = nullptr;
    util::TimeSeries* cpu_util_active = nullptr;
    util::TimeSeries* mem_pressure = nullptr;
  };
  MetricSeries series_;

  // Gauge slots resolved lazily on the first metrics tick (not in the
  // constructor: gauges live in the serialized counters map, and creating
  // them before the first tick would change pre-tick snapshot bytes).
  // Stores through these pointers replace a string construction plus map
  // lookup per gauge per tick — sample_metrics is allocation-free.
  struct MetricGauges {
    double* perf_cache_hits = nullptr;
    double* perf_cache_misses = nullptr;
    double* node_recomputes = nullptr;
    double* rate_updates = nullptr;
    double* reschedules_skipped = nullptr;
    double* dirty_flushes = nullptr;
    double* event_pool_live = nullptr;
    double* event_pool_slots_in_use = nullptr;
    double* event_pool_slots_free = nullptr;
    double* event_pool_chunks = nullptr;
    double* placement_index_probes = nullptr;
    double* placement_index_rebuilds = nullptr;
    double* event_queue_depth = nullptr;
  };
  MetricGauges gauges_;

  size_t finished_count_ = 0;
  size_t abandoned_count_ = 0;
  size_t submitted_count_ = 0;
  int node_failures_ = 0;
  // The snapshot's `counts` row.
  static auto counts(util::FieldsOf<ClusterEngine> auto& e) {
    return std::tie(e.finished_count_, e.abandoned_count_, e.submitted_count_,
                    e.node_failures_);
  }
};

}  // namespace coda::sim
