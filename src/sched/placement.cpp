#include "sched/placement.h"

#include <algorithm>

#include "util/assert.h"

namespace coda::sched {

PlacementRequest baseline_request(const workload::JobSpec& spec) {
  PlacementRequest req;
  if (spec.is_gpu_job()) {
    req.nodes = spec.train_config.nodes;
    req.gpus_per_node = spec.train_config.gpus_per_node;
    req.cpus_per_node = std::max(1, spec.requested_cpus);
  } else {
    req.nodes = 1;
    req.gpus_per_node = 0;
    req.cpus_per_node = std::max(1, spec.cpu_cores);
  }
  return req;
}

std::optional<Placement> find_placement(const cluster::Cluster& cluster,
                                        const PlacementRequest& request) {
  return find_placement(cluster, request, IdRange{});
}

std::optional<Placement> find_placement(const cluster::Cluster& cluster,
                                        const PlacementRequest& request,
                                        IdRange range) {
  CODA_ASSERT(request.nodes >= 1);
  CODA_ASSERT(request.cpus_per_node >= 1 || request.gpus_per_node >= 1);
  // Bucket probe: the index walks (free_gpus, free_cpus, id) ascending from
  // the request's demand, which is exactly the best-fit preference order, so
  // the first `nodes` feasible ids it yields are the linear scan's answer.
  static thread_local std::vector<cluster::NodeId> ids;
  ids.clear();
  const size_t got = cluster.placement_index().collect_best_fit(
      request.gpus_per_node, request.cpus_per_node, range,
      static_cast<size_t>(request.nodes), &ids);
  if (got < static_cast<size_t>(request.nodes)) {
    return std::nullopt;
  }
  Placement placement;
  for (cluster::NodeId id : ids) {
    placement.nodes.push_back(
        NodePlacement{id, request.cpus_per_node, request.gpus_per_node});
  }
  return placement;
}

}  // namespace coda::sched
