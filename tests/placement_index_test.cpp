// Randomized equivalence suite for the incremental placement index.
//
// Drives a cluster through thousands of random mutations (allocate, resize,
// release, failure toggles, CPU-bias updates) and checks after every step
// that the indexed query paths return exactly what the linear scans return:
// find_placement / count_feasible via the runtime toggle, and the CODA side
// queries (best_adjusted_fit, best_free_cpu_fit, eviction candidates, the
// fragmentation bucket sum) against brute-force recomputation from the
// nodes. The index is pure derived state — any divergence here is a
// maintenance bug, not a modelling choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "sched/placement.h"
#include "sim/experiment.h"
#include "sim/report_io.h"
#include "util/rng.h"
#include "workload/trace_gen.h"

namespace coda {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NodeId;
using cluster::PlacementIndex;

// Restores the global toggle even when an assertion aborts the test body.
struct IndexToggle {
  explicit IndexToggle(bool enabled) { sched::set_placement_index_enabled(enabled); }
  ~IndexToggle() { sched::set_placement_index_enabled(true); }
};

ClusterConfig mixed_cluster() {
  ClusterConfig cfg;
  cfg.node_count = 24;
  cfg.node.cores = 12;
  cfg.node.gpus = 4;
  cfg.cpu_only_node_count = 8;
  cfg.cpu_only_node.cores = 16;
  cfg.cpu_only_node.gpus = 0;
  return cfg;
}

bool placements_equal(const std::optional<sched::Placement>& a,
                      const std::optional<sched::Placement>& b) {
  if (a.has_value() != b.has_value()) {
    return false;
  }
  if (!a.has_value()) {
    return true;
  }
  if (a->nodes.size() != b->nodes.size()) {
    return false;
  }
  for (size_t i = 0; i < a->nodes.size(); ++i) {
    if (a->nodes[i].node != b->nodes[i].node ||
        a->nodes[i].cpus != b->nodes[i].cpus ||
        a->nodes[i].gpus != b->nodes[i].gpus) {
      return false;
    }
  }
  return true;
}

// Brute-force mirrors of the CODA-side index queries, computed straight
// from the nodes and the published bias table.
NodeId brute_best_adjusted_fit(const Cluster& cluster, int cpus) {
  NodeId best = PlacementIndex::kNone;
  int best_adj = 0;
  for (const auto& node : cluster.nodes()) {
    const int bias = cluster.placement_index().cpu_bias(node.id());
    const int adj = std::max(0, node.free_cpus() - bias);
    if (adj < cpus) {
      continue;
    }
    if (best == PlacementIndex::kNone || adj < best_adj) {
      best = node.id();
      best_adj = adj;
    }
  }
  return best;
}

NodeId brute_best_free_cpu_fit(const Cluster& cluster, int cpus) {
  NodeId best = PlacementIndex::kNone;
  int best_free = 0;
  for (const auto& node : cluster.nodes()) {
    if (node.free_cpus() < cpus) {
      continue;
    }
    if (best == PlacementIndex::kNone || node.free_cpus() < best_free) {
      best = node.id();
      best_free = node.free_cpus();
    }
  }
  return best;
}

std::vector<NodeId> brute_eviction_candidates(const Cluster& cluster,
                                              int gpus, int cpus_below) {
  std::vector<NodeId> out;
  for (const auto& node : cluster.nodes()) {
    if (node.free_gpus() >= gpus && node.free_cpus() < cpus_below) {
      out.push_back(node.id());
    }
  }
  return out;
}

long long brute_free_gpu_sum_below(const Cluster& cluster, int gpus) {
  long long total = 0;
  for (const auto& node : cluster.nodes()) {
    if (node.free_gpus() > 0 && node.free_gpus() < gpus) {
      total += node.free_gpus();
    }
  }
  return total;
}

TEST(PlacementIndexProperty, RandomWalkMatchesLinearScan) {
  Cluster cluster(mixed_cluster());
  util::Rng rng(0xC0DA5CA1Eull);
  // Live allocations: (job -> node), single-node for simplicity — the index
  // only sees per-node free counts, so multi-node jobs add no new states.
  std::map<cluster::JobId, NodeId> live;
  cluster::JobId next_job = 1;

  const int kSteps = 4000;
  for (int step = 0; step < kSteps; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op <= 3) {  // allocate
      const NodeId node =
          static_cast<NodeId>(rng.uniform_int(0, cluster.node_count() - 1));
      const int cpus = static_cast<int>(rng.uniform_int(1, 6));
      const int gpus = static_cast<int>(
          rng.uniform_int(0, std::min(2, cluster.node(node).total_gpus())));
      if (cluster.node(node).can_fit(cpus, gpus)) {
        ASSERT_TRUE(cluster.node(node).allocate(next_job, cpus, gpus).ok());
        live[next_job] = node;
        ++next_job;
      }
    } else if (op <= 5 && !live.empty()) {  // release
      auto it = live.begin();
      std::advance(it, rng.uniform_int(0, live.size() - 1));
      if (!cluster.node(it->second).failed()) {
        ASSERT_TRUE(cluster.node(it->second).release(it->first).ok());
        live.erase(it);
      }
    } else if (op == 6 && !live.empty()) {  // resize
      auto it = live.begin();
      std::advance(it, rng.uniform_int(0, live.size() - 1));
      cluster::Node& node = cluster.node(it->second);
      if (!node.failed()) {
        const int new_cpus = static_cast<int>(rng.uniform_int(1, 8));
        (void)node.resize_cpus(it->first, new_cpus);  // may not fit; fine
      }
    } else if (op == 7) {  // failure toggle
      const NodeId node =
          static_cast<NodeId>(rng.uniform_int(0, cluster.node_count() - 1));
      if (cluster.node(node).failed()) {
        cluster.node(node).set_failed(false);
      } else if (cluster.node(node).allocations().empty()) {
        // The engine evicts residents before failing a node; mirror that
        // precondition by only failing empty nodes.
        cluster.node(node).set_failed(true);
      }
    } else {  // publish a reservation bias
      const NodeId node =
          static_cast<NodeId>(rng.uniform_int(0, cluster.node_count() - 1));
      cluster.placement_index().set_cpu_bias(
          node, static_cast<int>(rng.uniform_int(0, 10)));
    }

    // --- indexed vs linear find_placement / count_feasible -------------
    sched::PlacementRequest req;
    req.nodes = static_cast<int>(rng.uniform_int(1, 3));
    req.gpus_per_node = static_cast<int>(rng.uniform_int(0, 4));
    req.cpus_per_node = static_cast<int>(rng.uniform_int(1, 8));
    PlacementIndex::IdRange range;
    if (rng.uniform() < 0.5) {
      const NodeId a =
          static_cast<NodeId>(rng.uniform_int(0, cluster.node_count()));
      const NodeId b =
          static_cast<NodeId>(rng.uniform_int(0, cluster.node_count()));
      range.lo = std::min(a, b);
      range.hi = std::max(a, b);
    }
    const int limit = static_cast<int>(rng.uniform_int(1, 12));

    std::optional<sched::Placement> indexed;
    std::optional<sched::Placement> scanned;
    int indexed_count = 0;
    int scanned_count = 0;
    {
      IndexToggle on(true);
      indexed = sched::find_placement(cluster, req, range);
      indexed_count = sched::count_feasible(cluster, req, range, limit);
    }
    {
      IndexToggle off(false);
      scanned = sched::find_placement(cluster, req, range);
      scanned_count = sched::count_feasible(cluster, req, range, limit);
    }
    ASSERT_TRUE(placements_equal(indexed, scanned))
        << "step " << step << " req={" << req.nodes << ","
        << req.gpus_per_node << "," << req.cpus_per_node << "} range=["
        << range.lo << "," << range.hi << ")";
    ASSERT_EQ(indexed_count, scanned_count) << "step " << step;

    // --- CODA side queries vs brute force -------------------------------
    const PlacementIndex& index = cluster.placement_index();
    const int k = static_cast<int>(rng.uniform_int(1, 12));
    ASSERT_EQ(index.best_adjusted_fit(k), brute_best_adjusted_fit(cluster, k))
        << "step " << step << " k=" << k;
    ASSERT_EQ(index.best_free_cpu_fit(k),
              brute_best_free_cpu_fit(cluster, k))
        << "step " << step << " k=" << k;
    const int eg = static_cast<int>(rng.uniform_int(1, 4));
    const int ec = static_cast<int>(rng.uniform_int(0, 8));
    std::vector<NodeId> candidates;
    index.collect_eviction_candidates(eg, ec, {}, &candidates);
    std::sort(candidates.begin(), candidates.end());
    ASSERT_EQ(candidates, brute_eviction_candidates(cluster, eg, ec))
        << "step " << step << " eg=" << eg << " ec=" << ec;
    ASSERT_EQ(index.free_gpu_sum_below(eg),
              brute_free_gpu_sum_below(cluster, eg))
        << "step " << step << " eg=" << eg;
  }
  // The walk must actually exercise the cluster, not no-op through it.
  EXPECT_GT(next_job, 500u);
  EXPECT_GT(cluster.placement_index().generation(), 1000u);
}

// The generation counter must move on every observable index change — the
// schedulers key their failed-shape dedup caches on it, so a missed bump
// would let a stale "this shape cannot place" verdict suppress a feasible
// placement.
TEST(PlacementIndexProperty, GenerationAdvancesOnObservableChanges) {
  Cluster cluster(mixed_cluster());
  PlacementIndex& index = cluster.placement_index();
  const uint64_t g0 = index.generation();
  ASSERT_TRUE(cluster.node(0).allocate(1, 2, 1).ok());
  const uint64_t g1 = index.generation();
  EXPECT_GT(g1, g0);
  // Re-publishing an unchanged bias is not an observable change.
  index.set_cpu_bias(0, 0);
  EXPECT_EQ(index.generation(), g1);
  index.set_cpu_bias(0, 3);
  EXPECT_GT(index.generation(), g1);
  const uint64_t g2 = index.generation();
  ASSERT_TRUE(cluster.node(0).release(1).ok());
  EXPECT_GT(index.generation(), g2);
}

// The same contract end to end at scale: on 10k nodes, where the index and
// the occupied-node screens carry the hot path, a CODA replay serializes to
// the same report bytes with the index on and off.
TEST(PlacementIndexProperty, TenThousandNodeReportMatchesLinearScan) {
  const workload::TraceConfig tc = workload::scale_profile(
      10000, /*gpu_jobs=*/300, /*cpu_jobs=*/450, /*duration_s=*/1800.0);
  const auto trace = workload::TraceGenerator(tc).generate();
  sim::ExperimentConfig config;
  config.engine.cluster.node_count = 10000;
  config.horizon_s = 1800.0;

  std::string indexed;
  std::string scanned;
  {
    IndexToggle on(true);
    indexed = sim::serialize_report(
        sim::run_experiment(sim::Policy::kCoda, trace, config));
  }
  {
    IndexToggle off(false);
    scanned = sim::serialize_report(
        sim::run_experiment(sim::Policy::kCoda, trace, config));
  }
  EXPECT_EQ(indexed, scanned);
}

}  // namespace
}  // namespace coda
