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

namespace {

// Best-fit score: prefer nodes that would be left with the fewest free GPUs,
// then the fewest free cores (pack tightly, keep big holes open for big
// jobs). Lower is better.
struct Candidate {
  const cluster::Node* node = nullptr;
  int free_gpus_after = 0;
  int free_cpus_after = 0;

  bool operator<(const Candidate& other) const {
    if (free_gpus_after != other.free_gpus_after) {
      return free_gpus_after < other.free_gpus_after;
    }
    if (free_cpus_after != other.free_cpus_after) {
      return free_cpus_after < other.free_cpus_after;
    }
    return node->id() < other.node->id();
  }
};

}  // namespace

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

std::optional<Placement> find_placement(const cluster::Cluster& cluster,
                                        const PlacementRequest& request,
                                        const NodeFilter& filter) {
  CODA_ASSERT(request.nodes >= 1);
  CODA_ASSERT(request.cpus_per_node >= 1 || request.gpus_per_node >= 1);
  // Rank every feasible node and take the best `nodes`; partial_sort picks
  // the same prefix as a full sort because the order is total.
  std::vector<Candidate> candidates;
  for (const auto& node : cluster.nodes()) {
    if (filter(node) &&
        node.can_fit(request.cpus_per_node, request.gpus_per_node)) {
      candidates.push_back(
          Candidate{&node, node.free_gpus() - request.gpus_per_node,
                    node.free_cpus() - request.cpus_per_node});
    }
  }
  if (static_cast<int>(candidates.size()) < request.nodes) {
    return std::nullopt;
  }
  std::partial_sort(candidates.begin(), candidates.begin() + request.nodes,
                    candidates.end());
  Placement placement;
  for (int i = 0; i < request.nodes; ++i) {
    placement.nodes.push_back(
        NodePlacement{candidates[static_cast<size_t>(i)].node->id(),
                      request.cpus_per_node, request.gpus_per_node});
  }
  return placement;
}

}  // namespace coda::sched
