// FIFO baseline: one global queue in strict arrival order with bounded
// backfill — the paper's production SLURM configuration (Sec. III-A) and the
// first comparison point of the evaluation (Sec. VI). SLURM's default
// scheduler backfills: jobs behind a blocked head may start when they fit,
// scanning a bounded window of the queue. A window of 1 recovers strict
// head-of-line-blocking FIFO.
//
// GPU jobs receive exactly the CPU cores their owner requested; nothing
// adapts, nothing is throttled. This is what produces the pathologies the
// paper measures: GPU fragmentation from over-asking jobs and long GPU-job
// queueing behind bursts of CPU jobs.
#pragma once

#include <list>

#include "sched/placement.h"
#include "sched/scheduler.h"

namespace coda::sched {

class FifoScheduler : public Scheduler {
 public:
  // `backfill_window`: how many queued jobs a scheduling pass may examine
  // (in arrival order) before giving up; 1 = strict FIFO.
  explicit FifoScheduler(int backfill_window = 256)
      : backfill_window_(backfill_window) {}

  const char* name() const override { return "FIFO"; }

  void submit(const workload::JobSpec& spec) override;
  void on_job_finished(const workload::JobSpec& spec) override;
  void on_job_evicted(const workload::JobSpec& spec) override;
  void kick() override;

  size_t pending() const { return queue_.size(); }
  size_t pending_jobs() const override { return queue_.size(); }
  size_t pending_gpu_jobs() const override { return gpu_pending_; }
  std::optional<PendingGpuDemand> min_pending_gpu_demand() const override;
  bool queued(cluster::JobId id) const override;

  void save_state(state::Writer* w) const override;
  void load_state(state::Reader* r, const SpecMap& specs) override;

 private:
  int backfill_window_;
  // std::list, not deque: backfill erases from the middle of the queue, and
  // a deque erase copies every JobSpec between the gap and the nearer end —
  // quadratic during failure-storm backlogs. Iteration order is identical.
  std::list<workload::JobSpec> queue_;
  size_t gpu_pending_ = 0;
  // Request shapes that failed placement, valid while the cluster's
  // placement-index generation stays at failed_gen_. Free capacity only
  // shrinks during a kick (starts allocate, nothing releases), so failures
  // recorded mid-kick still hold at kick exit; if no cluster mutation
  // happens between kicks the whole set carries over and repeat shapes
  // skip their placement search entirely.
  std::vector<PlacementRequest> failed_shapes_;
  uint64_t failed_gen_ = ~0ULL;
};

}  // namespace coda::sched
