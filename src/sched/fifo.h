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

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "sched/failed_shapes.h"
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

  size_t pending() const { return size_; }
  size_t pending_jobs() const override { return size_; }
  size_t pending_gpu_jobs() const override { return gpu_pending_; }
  std::optional<PendingGpuDemand> min_pending_gpu_demand() const override;
  bool queued(cluster::JobId id) const override;

  void save_state(state::Writer* w) const override;
  void load_state(state::Reader* r, const SpecMap& specs) override;

 private:
  static constexpr uint32_t kNil = ~0u;

  // One queued job. Entries live in a slab (freed slots are reused, so a
  // start or requeue allocates nothing) and sit on two lists: the queue,
  // and the bucket of their request shape. `order` ascends along the
  // queue: submits count up from 1, requeues at the head count down from
  // -1, so comparing two entries' positions is one comparison.
  struct Entry {
    workload::JobSpec spec;
    int64_t order = 0;
    uint32_t shape = 0;
    uint32_t prev = kNil;  // queue links
    uint32_t next = kNil;
    uint32_t shape_prev = kNil;  // bucket links, also in queue order
    uint32_t shape_next = kNil;
  };

  // The queued jobs that share one baseline request (and job kind). A
  // shape with queued jobs sits on the shape list, which is ordered by the
  // queue position of each shape's first job.
  struct Shape {
    PlacementRequest request;
    bool gpu = false;
    uint32_t head = kNil;
    uint32_t tail = kNil;
    uint32_t prev = kNil;  // shape list links
    uint32_t next = kNil;
  };

  void push(const workload::JobSpec& spec, bool front);
  // Takes one entry off both lists and frees its slot.
  void erase(uint32_t e);
  void unlink_shape(uint32_t s);
  // Links shape s into the shape list before shape `at` (last for kNil).
  void link_shape(uint32_t s, uint32_t at);
  // The position of the window's last entry (nothing is in the window when
  // the queue is empty or the window is not positive).
  bool window_empty() const { return window_last_ == kNil; }
  int64_t window_limit() const { return entries_[window_last_].order; }

  int backfill_window_;
  std::vector<Entry> entries_;
  uint32_t free_ = kNil;  // free slots, chained through Entry::next
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  size_t size_ = 0;
  int64_t back_order_ = 0;
  int64_t front_order_ = 0;
  // The last entry of the backfill window: the backfill_window_-th entry
  // of the queue, or its last one when it is shorter. Kept current as
  // entries enter and leave, one step per change.
  uint32_t window_last_ = kNil;

  std::vector<Shape> shapes_;
  std::map<std::tuple<bool, int, int, int>, uint32_t> shape_ids_;
  uint32_t first_shape_ = kNil;
  uint32_t last_shape_ = kNil;
  size_t gpu_pending_ = 0;

  // Failed requests, refused without a search while the placement index's
  // generation stays where the last kick left it.
  FailedShapes failed_;
};

}  // namespace coda::sched
