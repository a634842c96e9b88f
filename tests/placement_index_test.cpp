// Randomized equivalence suite for the incremental placement index.
//
// Drives a cluster through thousands of random mutations (allocate, resize,
// release, failure toggles, CPU-bias updates) and checks after every step
// that the indexed query paths return exactly what the linear scans return:
// find_placement (IdRange overload) against the scan of scan_placement.h,
// and the CODA side queries (best_adjusted_fit, best_free_cpu_fit, eviction
// candidates, the fragmentation bucket sum) against brute-force
// recomputation from the nodes. The index is pure derived state — any
// divergence here is a maintenance bug, not a modelling choice. End to end, report digests recorded from the linear-scan
// schedulers pin whole replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "sched/placement.h"
#include "scan_placement.h"
#include "sim/experiment.h"
#include "sim/report_cache.h"
#include "sim/report_io.h"
#include "util/rng.h"
#include "workload/trace_gen.h"

namespace coda {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NodeId;
using cluster::PlacementIndex;

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
                                              int gpus, int cpus_below,
                                              PlacementIndex::IdRange range) {
  std::vector<NodeId> out;
  for (const auto& node : cluster.nodes()) {
    if (node.id() >= range.lo && node.id() < range.hi &&
        node.free_gpus() >= gpus && node.free_cpus() < cpus_below) {
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

    // --- indexed vs linear find_placement --------------------------------
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
    const test::NodeFilter in_range = [range](const cluster::Node& node) {
      return node.id() >= range.lo && node.id() < range.hi;
    };
    ASSERT_TRUE(placements_equal(
        sched::find_placement(cluster, req, range),
        test::find_placement_by_scan(cluster, req, in_range)))
        << "step " << step << " req={" << req.nodes << ","
        << req.gpus_per_node << "," << req.cpus_per_node << "} range=["
        << range.lo << "," << range.hi << ")";

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
    index.collect_eviction_candidates(eg, ec, range, &candidates);
    std::sort(candidates.begin(), candidates.end());
    ASSERT_EQ(candidates, brute_eviction_candidates(cluster, eg, ec, range))
        << "step " << step << " eg=" << eg << " ec=" << ec << " range=["
        << range.lo << "," << range.hi << ")";
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
// IdBitmap::for_each visits exactly the members a next_at_least walk
// finds, in the same ascending order, at capacities around the word and
// summary boundaries, through inserts and erases.
TEST(IdBitmap, ForEachVisitsTheIdsOfTheNextAtLeastWalk) {
  util::Rng rng(11);
  for (const size_t capacity : {0u, 1u, 63u, 64u, 65u, 10000u}) {
    SCOPED_TRACE(capacity);
    cluster::IdBitmap bitmap;
    bitmap.reset(capacity);
    for (int round = 0; round < 40; ++round) {
      // Sparse rounds first, then denser ones.
      const double p = round < 20 ? 0.02 : 0.6;
      for (size_t id = 0; id < capacity; ++id) {
        const auto n = static_cast<NodeId>(id);
        if (rng.bernoulli(p) != bitmap.contains(n)) {
          bitmap.contains(n) ? bitmap.erase(n) : bitmap.insert(n);
        }
      }
      std::vector<NodeId> walked;
      for (NodeId id = bitmap.next_at_least(0); id != cluster::IdBitmap::kNone;
           id = bitmap.next_at_least(id + 1)) {
        walked.push_back(id);
      }
      std::vector<NodeId> visited;
      bitmap.for_each([&](NodeId id) { visited.push_back(id); });
      ASSERT_EQ(visited, walked) << "round " << round;
      EXPECT_EQ(visited.size(), bitmap.count());
    }
  }
}

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

// The same contract end to end. Each digest is
// CacheKeyHasher::mix(serialize_report(r)).hex() of one replay, recorded
// from the linear-scan schedulers before the index became the only
// placement path, and identical with the index on. The rows: a 10k-node
// half hour; the two bench_scale --fast traces; and a contended 80-node day,
// the only row whose digests change (under all three policies) when the
// fragmentation gauge sums the wrong buckets.
TEST(PlacementIndexProperty, ReportDigestsMatchLinearScan) {
  struct Row {
    const char* name;
    workload::TraceConfig trace;
    int nodes;
    double horizon_s;
    const char* digests[3];  // FIFO, DRF, CODA
  };
  workload::TraceConfig day = sim::standard_week_trace();
  day.duration_s = 86400.0;
  day.cpu_jobs /= 7;
  day.gpu_jobs /= 7;
  const Row rows[] = {
      {"10k half-hour", workload::scale_profile(10000, 300, 450, 1800.0),
       10000, 1800.0,
       {"397ab03f0d0cda44", "746dcbb121938b85", "a16463da50a0ead0"}},
      {"2k smoke", workload::scale_profile(2000, 600, 900, 4.0 * 3600.0),
       2000, 4.0 * 3600.0,
       {"6a63651e0f8b4f30", "eba983ba2613fb43", "a07012cbf11f40ba"}},
      {"10k smoke", workload::scale_profile(10000, 1200, 1800, 2.0 * 3600.0),
       10000, 2.0 * 3600.0,
       {"065b6e3831c3ee35", "1188a30a05b5d5e2", "448182775e42ebaf"}},
      {"80-node day", day, 80, 86400.0,
       {"089621940404dd6d", "d82ae56ee83d3b44", "c5101b526c2311de"}},
  };
  const sim::Policy policies[] = {sim::Policy::kFifo, sim::Policy::kDrf,
                                  sim::Policy::kCoda};
  for (const Row& row : rows) {
    const auto trace = workload::TraceGenerator(row.trace).generate();
    sim::ExperimentConfig config;
    config.engine.cluster.node_count = row.nodes;
    config.horizon_s = row.horizon_s;
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE(std::string(row.name) + " " + sim::to_string(policies[i]));
      sim::CacheKeyHasher digest;
      digest.mix(sim::serialize_report(
          sim::run_experiment(policies[i], trace, config)));
      EXPECT_EQ(digest.hex(), row.digests[i]);
    }
  }
}

}  // namespace
}  // namespace coda
