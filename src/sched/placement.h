// Placement search: find nodes for a job's resource request.
//
// All policies use best-fit packing (choose the feasible node that leaves
// the fewest free GPUs, then the fewest free cores) so that baseline-vs-CODA
// differences come from the *scheduling policy*, not the packer.
#pragma once

#include <optional>

#include "cluster/cluster.h"
#include "sched/scheduler.h"
#include "workload/job.h"

namespace coda::sched {

// How many CPU cores a placement should give the job on each node.
// For GPU jobs this is the paper's per-node core count (requested by the
// owner under the baselines, assigned by the CPU allocator under CODA).
struct PlacementRequest {
  int nodes = 1;          // distinct nodes required
  int gpus_per_node = 0;  // GPUs on each node (0 for CPU jobs)
  int cpus_per_node = 1;  // cores on each node
};

// Builds the request implied by a JobSpec under baseline scheduling (the
// owner's own CPU ask). CODA overrides cpus_per_node.
PlacementRequest baseline_request(const workload::JobSpec& spec);

// Half-open node-id interval a search is restricted to. Every structural
// node restriction the schedulers use (CODA's four-GPU/one-GPU arrays) is
// an id threshold, which lets the search run on the cluster's placement
// index instead of a full scan.
using IdRange = cluster::PlacementIndex::IdRange;

// Finds a best-fit placement over all nodes (or an id range), or nullopt
// when the cluster cannot host the request right now. Deterministic: ties
// break on node id. Served from the cluster's placement index.
std::optional<Placement> find_placement(const cluster::Cluster& cluster,
                                        const PlacementRequest& request);
std::optional<Placement> find_placement(const cluster::Cluster& cluster,
                                        const PlacementRequest& request,
                                        IdRange range);

}  // namespace coda::sched
