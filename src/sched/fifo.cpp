#include "sched/fifo.h"

#include "util/assert.h"

namespace coda::sched {

void FifoScheduler::unlink_shape(uint32_t s) {
  const Shape& shape = shapes_[s];
  (shape.prev == kNil ? first_shape_ : shapes_[shape.prev].next) = shape.next;
  (shape.next == kNil ? last_shape_ : shapes_[shape.next].prev) = shape.prev;
}

void FifoScheduler::link_shape(uint32_t s, uint32_t at) {
  Shape& shape = shapes_[s];
  shape.next = at;
  shape.prev = at == kNil ? last_shape_ : shapes_[at].prev;
  (shape.prev == kNil ? first_shape_ : shapes_[shape.prev].next) = s;
  (at == kNil ? last_shape_ : shapes_[at].prev) = s;
}

void FifoScheduler::push(const workload::JobSpec& spec, bool front) {
  const PlacementRequest request = baseline_request(spec);
  const auto [it, fresh] = shape_ids_.try_emplace(
      std::tuple{spec.is_gpu_job(), request.nodes, request.gpus_per_node,
                 request.cpus_per_node},
      static_cast<uint32_t>(shapes_.size()));
  if (fresh) {
    shapes_.push_back(Shape{request, spec.is_gpu_job()});
  }
  const uint32_t s = it->second;

  uint32_t e = free_;
  if (e == kNil) {
    e = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
  } else {
    free_ = entries_[e].next;
  }
  Entry& entry = entries_[e];
  entry.spec = spec;
  entry.shape = s;
  entry.order = front ? --front_order_ : ++back_order_;
  Shape& shape = shapes_[s];
  // The job heads its shape when it goes to the front of the queue or its
  // shape had no job queued, and then the shape's place on the shape list
  // is the queue's front or back.
  if (shape.head == kNil) {
    link_shape(s, front ? first_shape_ : kNil);
  } else if (front) {
    unlink_shape(s);
    link_shape(s, first_shape_);
  }
  if (front) {
    entry.prev = kNil;
    entry.next = head_;
    (head_ == kNil ? tail_ : entries_[head_].prev) = e;
    head_ = e;
    entry.shape_prev = kNil;
    entry.shape_next = shape.head;
    (shape.head == kNil ? shape.tail : entries_[shape.head].shape_prev) = e;
    shape.head = e;
  } else {
    entry.prev = tail_;
    entry.next = kNil;
    (tail_ == kNil ? head_ : entries_[tail_].next) = e;
    tail_ = e;
    entry.shape_prev = shape.tail;
    entry.shape_next = kNil;
    (shape.tail == kNil ? shape.head : entries_[shape.tail].shape_next) = e;
    shape.tail = e;
  }
  ++size_;
  if (shape.gpu) {
    ++gpu_pending_;
  }

  // A job at the back joins the window while the queue fits in it; one at
  // the head pushes the window's last entry out when it no longer does.
  const bool fits = static_cast<int64_t>(size_) <= backfill_window_;
  if (backfill_window_ < 1) {
    return;
  }
  if (window_last_ == kNil || (!front && fits)) {
    window_last_ = e;
  } else if (front && !fits) {
    window_last_ = entries_[window_last_].prev;
  }
}

void FifoScheduler::erase(uint32_t e) {
  Entry& entry = entries_[e];
  // Leaving the window lets the first entry behind it in.
  if (window_last_ != kNil && entry.order <= window_limit()) {
    const uint32_t behind = entries_[window_last_].next;
    if (behind != kNil) {
      window_last_ = behind;
    } else if (e == window_last_) {
      window_last_ = entry.prev;
    }
  }
  (entry.prev == kNil ? head_ : entries_[entry.prev].next) = entry.next;
  (entry.next == kNil ? tail_ : entries_[entry.next].prev) = entry.prev;
  const uint32_t s = entry.shape;
  Shape& shape = shapes_[s];
  const bool was_head = shape.head == e;
  (entry.shape_prev == kNil ? shape.head
                            : entries_[entry.shape_prev].shape_next) =
      entry.shape_next;
  (entry.shape_next == kNil ? shape.tail
                            : entries_[entry.shape_next].shape_prev) =
      entry.shape_prev;
  if (was_head) {
    // The shape's first job is now further back: move the shape past every
    // shape whose first job comes before it, or drop it when it is empty.
    uint32_t at = shape.next;
    unlink_shape(s);
    if (shape.head != kNil) {
      const int64_t order = entries_[shape.head].order;
      while (at != kNil && entries_[shapes_[at].head].order < order) {
        at = shapes_[at].next;
      }
      link_shape(s, at);
    }
  }
  --size_;
  if (shape.gpu) {
    --gpu_pending_;
  }
  entry.next = free_;
  free_ = e;
}

void FifoScheduler::submit(const workload::JobSpec& spec) {
  push(spec, /*front=*/false);
}

void FifoScheduler::on_job_finished(const workload::JobSpec&) {}

void FifoScheduler::on_job_evicted(const workload::JobSpec& spec) {
  if (!retry_after_eviction(spec)) {
    // Delayed resubmission (or abandonment) handled by the retry policy.
    return;
  }
  // Victims of a node failure go back to the head of the queue.
  push(spec, /*front=*/true);
}

void FifoScheduler::kick() {
  // One pass over the backfill window in queue order: start everything
  // that fits right now. Jobs that do not fit stay queued in place; with
  // window == 1 this degenerates to strict head-of-line-blocking FIFO. The
  // window is the first backfill_window_ entries as the pass found them;
  // jobs started during the pass still count against it.
  //
  // Free capacity only shrinks during the pass (starts allocate, nothing
  // releases), so once a request fails, every request of the same or a
  // larger shape fails too. The pass therefore visits shapes, not entries:
  // it walks the shape list, which is ordered by each shape's first queued
  // job, and stops at the first shape whose first job lies beyond the
  // window. A shape that fails (or that the memo refuses) stays where it
  // is; one whose first job starts moves behind its next job, so the walk
  // meets it again in queue order. The starts are the ones an
  // entry-by-entry walk makes, in the same order, on the same nodes.
  if (window_empty()) {
    return;
  }
  const auto& index = env_.cluster->placement_index();
  failed_.begin(index.generation());
  const int64_t limit = window_limit();
  // The last shape the pass left in place; the walk resumes after it.
  uint32_t visited = kNil;
  for (uint32_t s = first_shape_; s != kNil;
       s = visited == kNil ? first_shape_ : shapes_[visited].next) {
    const uint32_t e = shapes_[s].head;
    if (entries_[e].order > limit) {
      break;
    }
    const PlacementRequest& request = shapes_[s].request;
    if (failed_.refuses(request)) {
      visited = s;
      continue;
    }
    auto placement = find_placement(*env_.cluster, request);
    if (!placement.has_value()) {
      failed_.add(request);
      visited = s;
      continue;
    }
    const auto status = env_.start_job(entries_[e].spec.id, *placement);
    CODA_ASSERT_MSG(status.ok(), "FIFO proposed an infeasible placement");
    erase(e);
  }
  failed_.end(index.generation());
}

std::optional<sched::Scheduler::PendingGpuDemand>
FifoScheduler::min_pending_gpu_demand() const {
  // Smallest per-node demand among GPU jobs inside the backfill window —
  // the jobs this policy could actually start next: one candidate per GPU
  // shape whose first queued job is inside the window.
  std::optional<PendingGpuDemand> best;
  if (window_empty()) {
    return best;
  }
  const int64_t limit = window_limit();
  for (uint32_t s = first_shape_;
       s != kNil && entries_[shapes_[s].head].order <= limit;
       s = shapes_[s].next) {
    const Shape& shape = shapes_[s];
    if (!shape.gpu) {
      continue;
    }
    const PendingGpuDemand d{shape.request.gpus_per_node,
                             shape.request.cpus_per_node};
    if (!best || d < *best) {
      best = d;
    }
  }
  return best;
}

}  // namespace coda::sched
