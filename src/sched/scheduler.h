// Scheduler plug-in interface.
//
// The simulation engine (sim/engine.h) drives a Scheduler through three
// entry points — submit(), on_job_finished(), kick() — and hands it a
// SchedulerEnv of callbacks for acting on the cluster: starting jobs on
// chosen nodes, preempting jobs, resizing a job's CPU allocation, and
// reading live telemetry (GPU utilization, per-node bandwidth). Baselines
// (FIFO, DRF) and CODA implement the same interface, so every experiment
// can swap policies without touching the engine.
#pragma once

#include <algorithm>
#include <cmath>
#include <compare>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "simcore/event_tags.h"
#include "simcore/simulator.h"
#include "telemetry/mbm.h"
#include "util/assert.h"
#include "util/fields.h"
#include "util/result.h"
#include "workload/job.h"

namespace coda::state {
class Writer;
class Reader;
}  // namespace coda::state

namespace coda::sched {

// Job id -> full spec, for rehydrating serialized scheduler state (queues
// and running sets reference jobs by id; the snapshot's embedded session
// supplies the specs).
using SpecMap = std::map<cluster::JobId, workload::JobSpec>;

// The spec of a job id read from serialized state; poisons `r` and returns
// nullptr when the embedded session does not know the job.
const workload::JobSpec* spec_of(state::Reader* r, const SpecMap& specs,
                                 cluster::JobId id);

// Where a job runs: one entry per node it occupies.
struct NodePlacement {
  cluster::NodeId node = 0;
  int cpus = 0;
  int gpus = 0;

  // Engine `place` rows and CODA `rgp` rows.
  friend auto fields(util::FieldsOf<NodePlacement> auto& p) {
    return std::tie(p.node, p.cpus, p.gpus);
  }
  friend bool operator==(const NodePlacement&, const NodePlacement&) = default;
};

// How a scheduler re-admits jobs evicted by node failures. Disabled by
// default: victims re-enter the queue immediately (the legacy behavior,
// byte-identical for failure-free runs). Enabled, each eviction of a job
// delays its resubmission by backoff_base_s * 2^(evictions-1), clamped to
// backoff_max_s; past max_retries the job is abandoned via
// SchedulerEnv::abandon_job. Gang semantics come for free: the engine
// already evicts a multi-node job wholesale when any of its nodes fails,
// so the whole gang backs off and resubmits as one unit.
struct RetryPolicy {
  bool enabled = false;
  double backoff_base_s = 30.0;   // delay before the first retry
  double backoff_max_s = 3600.0;  // cap on exponential growth
  int max_retries = 8;            // restarts allowed before abandoning
};

struct Placement {
  std::vector<NodePlacement> nodes;

  int total_cpus() const {
    int n = 0;
    for (const auto& p : nodes) {
      n += p.cpus;
    }
    return n;
  }
  int total_gpus() const {
    int n = 0;
    for (const auto& p : nodes) {
      n += p.gpus;
    }
    return n;
  }
};

// Callbacks and services the engine provides to a scheduler. All pointers
// outlive the scheduler; callbacks must only be invoked from engine-driven
// entry points or simulator events (single-threaded discrete-event model).
struct SchedulerEnv {
  simcore::Simulator* sim = nullptr;
  const cluster::Cluster* cluster = nullptr;

  // Snapshot-restore mode: attach() must NOT schedule its periodic events
  // (eliminator checks, reservation updates). The restore path re-posts
  // them at their exact next firing times from the snapshot manifest
  // instead; posting them here too would tick twice.
  bool defer_periodics = false;

  // Starts a pending job on the given placement. The engine validates and
  // performs the node allocations; the scheduler must propose a feasible
  // placement (checked).
  std::function<util::Status(cluster::JobId, const Placement&)> start_job;

  // Stops a running job and returns it to "pending" state. When
  // `keep_progress` is false the job's work done so far is lost (the
  // paper's CPU-job abort); when true it is preserved (container migration
  // of GPU jobs between sub-arrays). The scheduler is responsible for
  // re-queueing the job afterwards.
  std::function<util::Status(cluster::JobId, bool keep_progress)> preempt_job;

  // Changes the CPU cores a running job holds on one node (adaptive
  // allocation / core-halving fallback). Fails if the node lacks free cores.
  std::function<util::Status(cluster::JobId, cluster::NodeId, int new_cpus)>
      resize_job;

  // Live telemetry probes (simulated nvidia-smi and Intel MBM).
  telemetry::GpuUtilSource* gpu_util = nullptr;
  telemetry::BandwidthSource* bandwidth = nullptr;

  // Sets the pressure floor of bandwidth->pressure_screen: from now on the
  // screen lists only occupied nodes whose pressure is at or above `floor`
  // (0 by default: every occupied node). The contention eliminator registers
  // its bw_threshold once at construction. It lives here rather than on
  // BandwidthSource so that probe wrappers forwarding the existing virtuals
  // keep reaching the engine's screen.
  std::function<void(double floor)> set_pressure_floor;

  // Simulated Intel MBA caps: set_bw_cap fails on non-MBA nodes.
  std::function<util::Status(cluster::NodeId, cluster::JobId, double)>
      set_bw_cap;
  std::function<void(cluster::NodeId, cluster::JobId)> clear_bw_cap;
  // Current cap for (node, job); < 0 means uncapped. Lets components tell a
  // live cap from one the engine already dropped (job stop paths clear all
  // of a job's caps) without emitting spurious clear events.
  std::function<double(cluster::NodeId, cluster::JobId)> bw_cap;

  // Whether the engine holds job `id` as pending: arrived, not running,
  // and neither finished nor abandoned. Queued jobs are pending; load_state
  // refuses a queue row naming any other job.
  std::function<bool(cluster::JobId)> is_pending;

  // The spec of a job the engine holds a record for: a retry resubmission
  // carries only the job id.
  std::function<const workload::JobSpec&(cluster::JobId)> job_spec;

  // Permanently gives up on an evicted job whose retry budget is exhausted.
  // The engine closes the job's accounting and reports it as abandoned; the
  // scheduler must already have dropped it from its own queues.
  std::function<void(cluster::JobId)> abandon_job;
};

class Scheduler : public simcore::EventSink {
 public:
  ~Scheduler() override = default;

  virtual const char* name() const = 0;

  // Called once by the engine before the run starts. The policy registers
  // itself as the sink of its event kinds here: the retry resubmission
  // below, and CODA's ticks in its override. A wrapper that forwards
  // attach() to an inner policy must not call this one too, or the inner
  // policy's registration is refused.
  virtual void attach(const SchedulerEnv& env) {
    env_ = env;
    CODA_ASSERT_MSG(
        env_.sim->register_sink(simcore::kTagRetryResubmit, this),
        "a second scheduler attached to one simulator");
  }

  // The retry resubmission's handler: the job's backoff ended, so it joins
  // the queue through the normal submit() + kick() path.
  void on_event(const simcore::EventTag& tag) override {
    submit(env_.job_spec(tag.a));
    kick();
  }

  // A new job arrived. Implementations enqueue it; the engine calls kick()
  // right after.
  virtual void submit(const workload::JobSpec& spec) = 0;

  // A running job completed (or was preempted by this scheduler and already
  // re-queued). Bookkeeping hook; the engine calls kick() right after.
  virtual void on_job_finished(const workload::JobSpec& spec) = 0;

  // The ENGINE forcibly preempted a running job (node failure). The
  // scheduler must clean its bookkeeping and re-queue the job; the engine
  // calls kick() after delivering every eviction of the failure. Never
  // called for preemptions the scheduler itself initiated via
  // env_.preempt_job.
  virtual void on_job_evicted(const workload::JobSpec& spec) = 0;

  // Try to start pending jobs given current cluster state. Must be
  // idempotent when nothing can start.
  virtual void kick() = 0;

  // Jobs currently queued (all kinds) — metrics hook.
  virtual size_t pending_jobs() const = 0;

  // GPU jobs currently queued — drives the paper's "active rate when jobs
  // queue up" metric (Fig. 10).
  virtual size_t pending_gpu_jobs() const = 0;

  // The most easily placed pending GPU job's per-node demand (fewest GPUs,
  // then fewest cores) among jobs this policy could start next. Backs the
  // fragmentation metric of Sec. VI-C: an idle GPU counts as fragmented
  // when its node cannot host even this demand. nullopt when no GPU job is
  // pending (or the policy cannot start one next, e.g. FIFO blocked behind
  // a CPU job).
  struct PendingGpuDemand {
    int gpus_per_node = 0;
    int cpus_per_node = 0;

    // Easier to place first: fewer GPUs per node, then fewer cores.
    friend auto operator<=>(const PendingGpuDemand&,
                            const PendingGpuDemand&) = default;
  };
  virtual std::optional<PendingGpuDemand> min_pending_gpu_demand() const = 0;

  // Whether job `id` waits in this policy's queue. restore_session refuses
  // a retry for a queued job, whose resubmission would queue it twice.
  virtual bool queued(cluster::JobId /*id*/) const { return false; }

  // CPU cores on `node` this policy could reclaim on demand for a GPU job
  // (CODA's preemptible borrowers). Idle GPUs next to reclaimable cores are
  // not fragmented — a pending GPU job would trigger the eviction. Baselines
  // cannot reclaim anything.
  virtual int reclaimable_cpus(cluster::NodeId /*node*/) const { return 0; }

  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // ---- snapshot support (src/state) ----
  // Serializes every policy field that affects future decisions (queues in
  // order, shares, retry counts). Derived classes write the base section
  // first, then their own; load_state mirrors the exact write sequence.
  // Configuration (backfill windows, CODA knobs) is NOT serialized — the
  // snapshot's embedded session reconstructs the scheduler before loading.
  virtual void save_state(state::Writer* w) const;
  virtual void load_state(state::Reader* r, const SpecMap& specs);

  // Evictions survived so far by one job (0 if never evicted) — test hook.
  int eviction_count(cluster::JobId id) const {
    auto it = evictions_.find(id);
    return it == evictions_.end() ? 0 : it->second;
  }

 protected:
  // Routes an engine-forced eviction through the retry policy. Returns true
  // when the caller should requeue the job immediately (policy disabled).
  // Otherwise the job either resubmits itself after an exponential-backoff
  // delay (a retry event, handled by on_event) or,
  // past the retry cap, is abandoned via env_.abandon_job.
  bool retry_after_eviction(const workload::JobSpec& spec) {
    if (!retry_.enabled) {
      return true;
    }
    const int attempt = ++evictions_[spec.id];
    if (attempt > retry_.max_retries) {
      evictions_.erase(spec.id);
      if (env_.abandon_job) {
        env_.abandon_job(spec.id);
      }
      return false;
    }
    const double delay = std::min(
        retry_.backoff_base_s * std::ldexp(1.0, attempt - 1),
        retry_.backoff_max_s);
    env_.sim->schedule_at(env_.sim->now() + delay,
                          {simcore::kTagRetryResubmit, spec.id});
    return false;
  }

  // ---- load_state helpers ----
  // The jobs holding an allocation on some node: once the engine has
  // restored the nodes, exactly the running jobs.
  std::set<cluster::JobId> jobs_on_nodes() const;
  // Reads the job id of one queue row (`row` is its key) and returns the
  // job's spec. Returns nullptr with `r` poisoned when queueing the job
  // would start it twice or before it arrives: it is in `taken` (seed it
  // with jobs_on_nodes(); every row read joins it), or the engine does not
  // hold it as pending.
  const workload::JobSpec* queued_spec(state::Reader* r, const SpecMap& specs,
                                       std::set<cluster::JobId>* taken,
                                       const char* row) const;

  SchedulerEnv env_;
  RetryPolicy retry_;
  std::unordered_map<cluster::JobId, int> evictions_;
};

}  // namespace coda::sched
