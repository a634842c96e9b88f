// A single server in the simulated GPU cluster.
//
// Mirrors the paper's hardware: PCIe multi-GPU boxes with two Xeon Gold 6132
// sockets (28 cores), a shared memory-bandwidth domain, a shared PCIe 3.0
// domain, and optionally Intel MBA bandwidth-throttling support (the paper's
// eliminator falls back to core-halving on nodes without MBA).
#pragma once

#include <vector>

#include "cluster/resources.h"
#include "util/result.h"

namespace coda::cluster {

class PlacementIndex;

struct NodeConfig {
  int cores = 28;               // 2 sockets x 14 cores (Xeon Gold 6132)
  int gpus = 5;                 // 400 GPUs / 80 nodes in the paper's cluster
  double mem_bw_gbps = 150.0;   // achievable DRAM bandwidth per node
  double pcie_gbps = 16.0;      // PCIe 3.0 x16 host<->device domain
  double llc_mb = 38.5;         // 2 x 19.25 MB last-level cache
  bool mba_capable = true;      // supports Memory Bandwidth Allocation
};

// Per-job allocation entry on one node.
struct Allocation {
  JobId job = 0;
  int cpus = 0;
  int gpus = 0;
};

class Node {
 public:
  Node(NodeId id, const NodeConfig& config) : id_(id), config_(config) {}

  NodeId id() const { return id_; }
  const NodeConfig& config() const { return config_; }

  int total_cpus() const { return config_.cores; }
  int total_gpus() const { return config_.gpus; }
  int used_cpus() const { return used_.cpus; }
  int used_gpus() const { return used_.gpus; }
  // A failed node offers no free capacity (its allocations must already
  // have been evicted by the engine).
  int free_cpus() const { return failed_ ? 0 : config_.cores - used_.cpus; }
  int free_gpus() const { return failed_ ? 0 : config_.gpus - used_.gpus; }

  // True when the node can host an additional (cpus, gpus) allocation.
  bool can_fit(int cpus, int gpus) const {
    return !failed_ && cpus <= free_cpus() && gpus <= free_gpus();
  }

  // Failure injection: a failed node accepts no allocations and reports no
  // free capacity until it recovers.
  bool failed() const { return failed_; }
  void set_failed(bool failed);

  // Attaches the cluster's free-resource index; every successful mutation
  // republishes this node's (free_gpus, free_cpus) through it. Bare nodes
  // (unit tests) run unindexed.
  void set_index(PlacementIndex* index) { index_ = index; }

  // Attaches the cluster's aggregate used-resource accumulator; every
  // successful allocate/resize/release folds its integer delta in, keeping
  // Cluster::used_cpus()/used_gpus() O(1). Bare nodes run untracked.
  void set_used_totals(ResourceVector* totals) { used_totals_ = totals; }

  // Reserves (cpus, gpus) for `job`. Fails with kResourceExhausted when the
  // request does not fit and kFailedPrecondition when the job already holds
  // an allocation here (grow/shrink must go through resize()).
  util::Status allocate(JobId job, int cpus, int gpus);

  // Changes the CPU count of an existing allocation (the adaptive allocator
  // tunes cores at runtime; GPUs never change mid-job). Fails when the job
  // has no allocation here or the delta does not fit.
  util::Status resize_cpus(JobId job, int new_cpus);

  // Releases the job's allocation. Fails with kNotFound if absent.
  util::Status release(JobId job);

  // Allocation held by `job`, or kNotFound.
  util::Result<Allocation> allocation_of(JobId job) const;

  bool hosts(JobId job) const { return find(job) != allocations_.end(); }
  // Ascending job id.
  const std::vector<Allocation>& allocations() const { return allocations_; }

  // Jobs currently holding >= 1 GPU here (training jobs).
  std::vector<JobId> gpu_jobs() const;
  // Jobs holding CPUs but no GPUs here (CPU jobs).
  std::vector<JobId> cpu_only_jobs() const;

 private:
  // Republishes (free_gpus, free_cpus) to the placement index, if attached.
  void publish_free();
  // The job's allocation, or allocations_.end().
  std::vector<Allocation>::const_iterator find(JobId job) const;

  NodeId id_;
  NodeConfig config_;
  ResourceVector used_;
  bool failed_ = false;
  // Sorted by job id, the order every walk over a node's jobs (snapshot
  // rows, restore checks, CODA's borrower scan) must see. One entry per
  // resident job: a handful on a 28-core node, so a sorted insert or erase
  // moves a few entries and, once the vector has grown, allocates nothing.
  std::vector<Allocation> allocations_;
  PlacementIndex* index_ = nullptr;
  ResourceVector* used_totals_ = nullptr;  // cluster-wide used accumulator
};

}  // namespace coda::cluster
