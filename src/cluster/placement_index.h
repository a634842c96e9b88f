// Incrementally maintained free-resource index over the cluster's nodes.
//
// Every node lives in exactly one bucket of an exact (free_gpus, free_cpus)
// grid; each bucket is a two-level bitmap over node ids, and each row of the
// grid (one free_gpus value) has a bitmask of its non-empty buckets. Node
// mutations (allocate / resize / release / failure) re-bucket the node in
// O(1) word operations, and best-fit placement queries walk the non-empty
// buckets in the scheduler's exact preference order — fewest free GPUs, then
// fewest free cores, then lowest node id — instead of scanning all N nodes.
// The index is pure derived state: it is rebuilt from the nodes on
// construction and restore, carries a generation counter the schedulers'
// failed-shape memos key on, and is never serialized itself.
//
// Two side tables ride along for the CODA CPU array:
//   - a marginal free_cpus table (any GPU state) answering the borrow-path
//     query "lowest (free_cpus, id) with free_cpus >= k", and
//   - an adjusted-cores table bucketing each node by
//     max(0, free_cpus - bias), where the scheduler publishes per-node bias
//     (the GPU-array reservation hold) via set_cpu_bias(). This answers the
//     CPU array's non-borrow best-fit without re-deriving scheduler state.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/resources.h"

namespace coda::cluster {

// Fixed-capacity set of node ids: one bit per id plus a one-bit-per-word
// summary level, so membership updates are O(1) and "first id >= from" skips
// empty regions 4096 ids at a time. No allocation after reset().
class IdBitmap {
 public:
  static constexpr NodeId kNone = 0xFFFFFFFFu;
  static constexpr size_t kWordBits = 64;

  void reset(size_t capacity);
  void insert(NodeId id);
  void erase(NodeId id);
  bool contains(NodeId id) const;
  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  // Smallest member >= from, or kNone.
  NodeId next_at_least(NodeId from) const;

  // Calls fn(id) for every member, in ascending order. The walk is inline
  // and goes word by word (non-empty words found through the summary), so a
  // member costs a few instructions rather than a next_at_least call. fn
  // must not change this bitmap.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (size_t sw = 0; sw < summary_.size(); ++sw) {
      for (uint64_t s = summary_[sw]; s != 0; s &= s - 1) {
        const size_t w = sw * kWordBits + std::countr_zero(s);
        for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
          fn(static_cast<NodeId>(w * kWordBits + std::countr_zero(bits)));
        }
      }
    }
  }

 private:
  std::vector<uint64_t> words_;
  std::vector<uint64_t> summary_;  // bit w set iff words_[w] != 0
  size_t capacity_ = 0;
  size_t count_ = 0;
};

class PlacementIndex {
 public:
  // Query/maintenance counters. They are not part of the index's state,
  // but they do reach snapshots: the engine republishes them as the
  // `placement_index_probes` / `placement_index_rebuilds` gauges on every
  // metrics tick, and its save_state writes those as `ctr` rows. A search
  // change that keeps every decision therefore still moves the probe row
  // (Snapshot.PinnedBlobDigests also pins each blob with it masked).
  struct Stats {
    uint64_t probes = 0;    // placement/count/candidate queries answered
    uint64_t rebuilds = 0;  // full reset()s (construction, restore replay)
  };

  // Half-open id interval a query is restricted to. Default covers all ids.
  struct IdRange {
    NodeId lo = 0;
    NodeId hi = 0xFFFFFFFFu;
  };

  // Sizes the grid for nodes with up to max_gpus/max_cpus free units and
  // places every id in the (0, 0) bucket with zero bias. Counts as a
  // rebuild; callers then publish real per-node values via node_changed().
  void reset(int max_gpus, int max_cpus, size_t node_count);

  // Publishes a node's current (free_gpus, free_cpus). No-op (and no
  // generation bump) when the bucket key is unchanged.
  void node_changed(NodeId id, int free_gpus, int free_cpus);

  // Publishes the CODA reservation hold for a node (adjusted free cores =
  // max(0, free_cpus - bias)). Bumps the generation when the adjusted
  // bucket actually moves.
  void set_cpu_bias(NodeId id, int bias);
  int cpu_bias(NodeId id) const { return bias_[id]; }

  // Monotonic counter of observable state changes; schedulers key their
  // failed-shape caches on it.
  uint64_t generation() const { return generation_; }

  size_t node_count() const { return key_gpus_.size(); }
  const Stats& stats() const { return stats_; }

  // Appends up to `want` node ids feasible for (gpus, cpus) within `range`,
  // in exact best-fit order: ascending (free_gpus, free_cpus, id). Returns
  // how many ids were appended.
  size_t collect_best_fit(int gpus, int cpus, IdRange range, size_t want,
                          std::vector<NodeId>* out) const;

  // Lowest (adjusted cores, id) with adjusted >= cpus, or kNone. The CODA
  // CPU array's non-borrow best fit.
  NodeId best_adjusted_fit(int cpus) const;

  // Lowest (free_cpus, id) with free_cpus >= cpus regardless of GPU state,
  // or kNone. The CODA CPU array's borrow fallback.
  NodeId best_free_cpu_fit(int cpus) const;

  // Appends every in-range id with free_gpus >= gpus and free_cpus <
  // cpus_below (bucket order, NOT id-sorted — callers sort). The CODA
  // preemption scan's candidate set: nodes that could host the GPU shape if
  // CPU borrowers were evicted.
  void collect_eviction_candidates(int gpus, int cpus_below, IdRange range,
                                   std::vector<NodeId>* out) const;

  // Sum over all nodes with 0 < free_gpus < gpus of their free_gpus — the
  // adjacency-fragmentation numerator (idle GPUs on nodes too sparse to host
  // the easiest pending shape). Pure bucket-count arithmetic, O(grid).
  long long free_gpu_sum_below(int gpus) const;

  static constexpr NodeId kNone = IdBitmap::kNone;

 private:
  int bucket_of(int free_gpus, int free_cpus) const {
    return free_gpus * (max_cpus_ + 1) + free_cpus;
  }
  int adjusted_of(int free_cpus, int bias) const {
    const int adj = free_cpus - bias;
    return adj > 0 ? adj : 0;
  }

  // Marks bucket (g, c) non-empty or empty in row g's occupancy mask.
  void set_occupied(int free_gpus, int free_cpus, bool occupied);

  int max_gpus_ = 0;
  int max_cpus_ = 0;
  std::vector<IdBitmap> buckets_;       // (free_gpus, free_cpus) grid
  // One bit per bucket, row by row: bit c of row g is set iff bucket (g, c)
  // holds a node, so a search skips empty buckets a word at a time.
  size_t row_words_ = 0;
  std::vector<uint64_t> occupied_;
  std::vector<IdBitmap> cpu_marginal_;  // by free_cpus, any GPU state
  std::vector<IdBitmap> adjusted_;      // by max(0, free_cpus - bias)
  std::vector<int> key_gpus_;           // current bucket key per node
  std::vector<int> key_cpus_;
  std::vector<int> bias_;
  uint64_t generation_ = 0;
  mutable Stats stats_;
};

}  // namespace coda::cluster
