// The reference placement search for tests: a linear scan over every node
// with an arbitrary node predicate. The indexed sched::find_placement is
// checked against it; pass a filter for the same id range to get the
// identical answer.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"
#include "sched/placement.h"
#include "util/assert.h"

namespace coda::test {

// Restricts which nodes a search may use; return true to allow.
using NodeFilter = std::function<bool(const cluster::Node&)>;

// Best fit over the nodes `filter` allows: fewest free GPUs left, then
// fewest free cores left, then lowest node id. nullopt when fewer than
// `request.nodes` nodes can host the request.
inline std::optional<sched::Placement> find_placement_by_scan(
    const cluster::Cluster& cluster, const sched::PlacementRequest& request,
    const NodeFilter& filter) {
  CODA_ASSERT(request.nodes >= 1);
  CODA_ASSERT(request.cpus_per_node >= 1 || request.gpus_per_node >= 1);
  struct Candidate {
    int free_gpus_after;
    int free_cpus_after;
    cluster::NodeId id;
    bool operator<(const Candidate& o) const {
      return std::tie(free_gpus_after, free_cpus_after, id) <
             std::tie(o.free_gpus_after, o.free_cpus_after, o.id);
    }
  };
  // Rank every feasible node and take the best `nodes`; partial_sort picks
  // the same prefix as a full sort because the order is total.
  std::vector<Candidate> candidates;
  for (const auto& node : cluster.nodes()) {
    if (filter(node) &&
        node.can_fit(request.cpus_per_node, request.gpus_per_node)) {
      candidates.push_back(Candidate{node.free_gpus() - request.gpus_per_node,
                                     node.free_cpus() - request.cpus_per_node,
                                     node.id()});
    }
  }
  if (static_cast<int>(candidates.size()) < request.nodes) {
    return std::nullopt;
  }
  std::partial_sort(candidates.begin(), candidates.begin() + request.nodes,
                    candidates.end());
  sched::Placement placement;
  for (int i = 0; i < request.nodes; ++i) {
    placement.nodes.push_back(sched::NodePlacement{
        candidates[static_cast<size_t>(i)].id, request.cpus_per_node,
        request.gpus_per_node});
  }
  return placement;
}

}  // namespace coda::test
