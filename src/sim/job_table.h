// JobTable: the engine's per-job state, one slot per job.
//
// A slot holds the job's JobRecord, whether the job is pending and since
// when, the work a preemption or an eviction preserved for its next start,
// and a handle to its pooled RunningJob while it runs (the engine owns the
// pool; the table only stores the handle). Slots are appended when a job is
// injected or loaded from a snapshot and are never erased. They live in
// fixed-size chunks that never move, so a slot's address, and a pointer to
// its record's spec, stays valid while the table grows.
//
// An open-addressing index maps a job id to its slot: O(1) lookups and no
// allocation per job. Nothing is ever erased, so the index needs no
// deletion and no tombstones.
//
// Iterating the table visits (id, record) pairs in ascending job id, the
// order every persisted and reported row is written in; by_id() lists the
// slots in that order. Trace loads append in id order. A SUBMIT with an
// explicit id below earlier ones appends out of order, and the next walk
// sorts the unsorted tail and merges it in. That walk mutates cached order
// from a const method: the table, like the engine that owns it, is used by
// one thread at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/resources.h"
#include "util/fields.h"
#include "workload/job.h"

namespace coda::sim {

// Per-job lifecycle record; the raw material for every queueing/latency
// figure in the evaluation.
struct JobRecord {
  workload::JobSpec spec;
  double submit_time = 0.0;
  double first_start_time = -1.0;  // -1 while never started
  double finish_time = -1.0;       // -1 while unfinished
  double queue_time_total = 0.0;   // total time spent pending
  int preempt_count = 0;
  int final_cpus = 0;              // cores per node at finish
  bool completed = false;

  // ---- failure/recovery accounting ----
  int evict_count = 0;      // engine-forced evictions (node failures)
  int restart_count = 0;    // starts that followed an eviction
  bool abandoned = false;   // retry budget exhausted; never completed
  // Resource-seconds consumed while running, and the subset whose progress
  // was discarded by evictions (rolled back past a checkpoint, or lost
  // entirely without one). goodput = 1 - wasted / busy.
  double busy_core_s = 0.0;
  double busy_gpu_s = 0.0;
  double wasted_core_s = 0.0;
  double wasted_gpu_s = 0.0;

  // Queueing delay until the first start (the paper's queuing time).
  double initial_queue_time() const {
    return first_start_time >= 0.0 ? first_start_time - submit_time : -1.0;
  }
  double end_to_end_latency() const {
    return finish_time >= 0.0 ? finish_time - submit_time : -1.0;
  }

  // The lifecycle fields (all but the spec), in the order engine `rec`
  // rows and report record rows carry them.
  friend auto fields(util::FieldsOf<JobRecord> auto& r) {
    return std::tie(r.submit_time, r.first_start_time, r.finish_time,
                    r.queue_time_total, r.preempt_count, r.final_cpus,
                    r.completed, r.evict_count, r.restart_count, r.abandoned,
                    r.busy_core_s, r.busy_gpu_s, r.wasted_core_s,
                    r.wasted_gpu_s);
  }
};

class JobTable {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  // One job. The record is the engine's to update; the rest changes only
  // through the table, which keeps the running count.
  class Slot {
   public:
    cluster::JobId id() const { return record.spec.id; }
    // Arrived and not running: queued, or waiting out a retry backoff.
    bool pending() const { return pending_; }
    double pending_since() const { return pending_since_; }
    // Work a preemption or an eviction kept for the next start.
    bool has_remaining() const { return has_remaining_; }
    double remaining() const { return remaining_; }
    bool running() const { return run_ != kNone; }
    // The pooled RunningJob's handle while the job runs, else kNone.
    uint32_t run() const { return run_; }

   private:
    friend class JobTable;
    // Ahead of the record, whose first field is the id: a lookup checks
    // the id and most callers then read these.
    double pending_since_ = 0.0;
    double remaining_ = 0.0;
    uint32_t run_ = kNone;
    bool pending_ = false;
    bool has_remaining_ = false;

   public:
    JobRecord record;
  };

  JobTable() = default;
  JobTable(const JobTable&) = delete;
  JobTable& operator=(const JobTable&) = delete;

  // Sizes the index and the id order for `jobs` more slots, so appending
  // that many rehashes nothing.
  void reserve(size_t jobs);
  // Appends a slot for `spec` (its record's spec; every other field
  // default). nullptr when the table already holds spec.id.
  Slot* add(const workload::JobSpec& spec);

  Slot* find(cluster::JobId id) {
    const uint32_t s = lookup(id);
    return s == kNone ? nullptr : &slot(s);
  }
  const Slot* find(cluster::JobId id) const {
    const uint32_t s = lookup(id);
    return s == kNone ? nullptr : &slot(s);
  }
  // The record of a job the table must hold (asserted).
  const JobRecord& at(cluster::JobId id) const;

  size_t size() const { return size_; }
  size_t running_count() const { return running_; }

  void set_pending(Slot& s, double since);
  void clear_pending(Slot& s);
  void set_remaining(Slot& s, double work);
  void clear_remaining(Slot& s);
  void set_run(Slot& s, uint32_t run);
  void clear_run(Slot& s);

  Slot& slot(uint32_t s) { return chunks_[s >> kChunkBits][s & kChunkMask]; }
  const Slot& slot(uint32_t s) const {
    return chunks_[s >> kChunkBits][s & kChunkMask];
  }
  // Every slot, by ascending job id.
  const std::vector<uint32_t>& by_id() const;

  class const_iterator {
   public:
    using value_type = std::pair<cluster::JobId, const JobRecord&>;
    using reference = value_type;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::input_iterator_tag;

    const_iterator(const JobTable* table, const uint32_t* at)
        : table_(table), at_(at) {}
    value_type operator*() const {
      const Slot& s = table_->slot(*at_);
      return {s.id(), s.record};
    }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return at_ == o.at_; }

   private:
    const JobTable* table_;
    const uint32_t* at_;
  };
  // (id, record) pairs in ascending id order.
  const_iterator begin() const { return {this, by_id().data()}; }
  const_iterator end() const {
    const std::vector<uint32_t>& order = by_id();
    return {this, order.data() + order.size()};
  }

 private:
  static constexpr uint32_t kChunkBits = 10;
  static constexpr uint32_t kChunkMask = (1u << kChunkBits) - 1;

  // The slot holding `id`, or kNone.
  uint32_t lookup(cluster::JobId id) const;
  // The index position `id` probes first.
  size_t home(cluster::JobId id) const;
  // Rebuilds the index at `capacity` positions (a power of two).
  void rehash(size_t capacity);

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  size_t size_ = 0;
  // Slot numbers by hashed id, linear probing, kNone for empty; at most
  // half full.
  std::vector<uint32_t> index_;
  int index_shift_ = 64;  // 64 - log2(index_.size())
  // Slot numbers; the first sorted_ are in ascending id order.
  mutable std::vector<uint32_t> order_;
  mutable size_t sorted_ = 0;
  size_t running_ = 0;
};

}  // namespace coda::sim
