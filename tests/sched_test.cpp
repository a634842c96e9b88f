// Tests for placement search and the FIFO/DRF baseline schedulers, driven
// through a minimal fake engine environment.
#include <gtest/gtest.h>

#include <vector>

#include "sched/drf.h"
#include "sched/fifo.h"
#include "sched/placement.h"

namespace coda::sched {
namespace {

workload::JobSpec gpu_job(cluster::JobId id, cluster::TenantId tenant,
                          int gpus, int cpus) {
  workload::JobSpec spec;
  spec.id = id;
  spec.tenant = tenant;
  spec.kind = workload::JobKind::kGpuTraining;
  spec.model = perfmodel::ModelId::kResnet50;
  spec.train_config = perfmodel::TrainConfig{1, gpus, 0};
  spec.requested_cpus = cpus;
  spec.iterations = 100;
  return spec;
}

workload::JobSpec cpu_job(cluster::JobId id, cluster::TenantId tenant,
                          int cores) {
  workload::JobSpec spec;
  spec.id = id;
  spec.tenant = tenant;
  spec.kind = workload::JobKind::kCpu;
  spec.cpu_cores = cores;
  spec.cpu_work_core_s = 100;
  return spec;
}

// Minimal engine stand-in: start_job allocates directly on the cluster.
class FakeEngine {
 public:
  explicit FakeEngine(int nodes, int cores = 8, int gpus = 2)
      : cluster_(make_config(nodes, cores, gpus)) {}

  SchedulerEnv env() {
    SchedulerEnv e;
    e.sim = &sim_;
    e.cluster = &cluster_;
    e.start_job = [this](cluster::JobId id, const Placement& p) {
      for (const auto& np : p.nodes) {
        auto status = cluster_.node(np.node).allocate(id, np.cpus, np.gpus);
        if (!status.ok()) {
          return status;
        }
      }
      started_.push_back(id);
      placements_[id] = p;
      return util::Status::Ok();
    };
    e.preempt_job = [this](cluster::JobId id, bool) {
      cluster_.release_everywhere(id);
      return util::Status::Ok();
    };
    e.resize_job = [](cluster::JobId, cluster::NodeId, int) {
      return util::Status::Ok();
    };
    return e;
  }

  void finish(cluster::JobId id) { cluster_.release_everywhere(id); }

  cluster::Cluster& cluster() { return cluster_; }
  const std::vector<cluster::JobId>& started() const { return started_; }
  const Placement& placement_of(cluster::JobId id) {
    return placements_.at(id);
  }

 private:
  static cluster::ClusterConfig make_config(int nodes, int cores, int gpus) {
    cluster::ClusterConfig cfg;
    cfg.node_count = nodes;
    cfg.node.cores = cores;
    cfg.node.gpus = gpus;
    return cfg;
  }

  cluster::Cluster cluster_;
  simcore::Simulator sim_;
  std::vector<cluster::JobId> started_;
  std::map<cluster::JobId, Placement> placements_;
};

// ---------------------------------------------------------------- placement

TEST(Placement, BaselineRequestShapes) {
  auto g = gpu_job(1, 0, 4, 8);
  auto req = baseline_request(g);
  EXPECT_EQ(req.nodes, 1);
  EXPECT_EQ(req.gpus_per_node, 4);
  EXPECT_EQ(req.cpus_per_node, 8);
  auto c = cpu_job(2, 0, 3);
  req = baseline_request(c);
  EXPECT_EQ(req.gpus_per_node, 0);
  EXPECT_EQ(req.cpus_per_node, 3);
}

TEST(Placement, BestFitPacksTightest) {
  FakeEngine engine(3);
  // Node 0: 1 GPU used; node 1: empty; node 2: 1 GPU + 6 cores used.
  ASSERT_TRUE(engine.cluster().node(0).allocate(90, 2, 1).ok());
  ASSERT_TRUE(engine.cluster().node(2).allocate(91, 6, 1).ok());
  PlacementRequest req{1, 1, 2};
  auto placement = find_placement(engine.cluster(), req);
  ASSERT_TRUE(placement.has_value());
  // Node 2 leaves 0 free GPUs after, the tightest fit.
  EXPECT_EQ(placement->nodes[0].node, 2u);
}

TEST(Placement, RespectsFilter) {
  FakeEngine engine(3);
  PlacementRequest req{1, 1, 1};
  auto placement = find_placement(
      engine.cluster(), req,
      [](const cluster::Node& n) { return n.id() == 1; });
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->nodes[0].node, 1u);
}

TEST(Placement, MultiNodePlacementsUseDistinctNodes) {
  FakeEngine engine(3);
  PlacementRequest req{2, 2, 3};
  auto placement = find_placement(engine.cluster(), req);
  ASSERT_TRUE(placement.has_value());
  ASSERT_EQ(placement->nodes.size(), 2u);
  EXPECT_NE(placement->nodes[0].node, placement->nodes[1].node);
  EXPECT_EQ(placement->total_gpus(), 4);
  EXPECT_EQ(placement->total_cpus(), 6);
}

TEST(Placement, FailsWhenNothingFits) {
  FakeEngine engine(1);
  EXPECT_FALSE(
      find_placement(engine.cluster(), PlacementRequest{1, 3, 1}).has_value());
  EXPECT_FALSE(
      find_placement(engine.cluster(), PlacementRequest{2, 1, 1}).has_value());
}

// --------------------------------------------------------------------- FIFO

TEST(Fifo, StartsInArrivalOrder) {
  FakeEngine engine(2);
  FifoScheduler fifo;
  fifo.attach(engine.env());
  fifo.submit(gpu_job(1, 0, 1, 2));
  fifo.submit(cpu_job(2, 1, 2));
  fifo.kick();
  EXPECT_EQ(engine.started(), (std::vector<cluster::JobId>{1, 2}));
  EXPECT_EQ(fifo.pending(), 0u);
}

TEST(Fifo, StrictModeBlocksHeadOfLine) {
  FakeEngine engine(1);  // 8 cores, 2 gpus
  FifoScheduler fifo(/*backfill_window=*/1);
  fifo.attach(engine.env());
  fifo.submit(cpu_job(1, 0, 8));  // fills all cores
  fifo.submit(cpu_job(2, 0, 8));  // cannot fit -> blocks
  fifo.submit(cpu_job(3, 0, 1));  // would fit, but strict FIFO blocks
  fifo.kick();
  EXPECT_EQ(engine.started().size(), 1u);
  EXPECT_EQ(fifo.pending(), 2u);
  // Finishing the head unblocks in order.
  engine.finish(1);
  fifo.on_job_finished(cpu_job(1, 0, 8));
  fifo.kick();
  EXPECT_EQ(engine.started(), (std::vector<cluster::JobId>{1, 2}));
}

TEST(Fifo, BackfillStartsFittingJobsBehindBlockedHead) {
  FakeEngine engine(1);  // 8 cores, 2 gpus
  FifoScheduler fifo;    // default SLURM-like backfill window
  fifo.attach(engine.env());
  fifo.submit(cpu_job(1, 0, 6));
  fifo.submit(cpu_job(2, 0, 8));  // blocked: only 2 cores left
  fifo.submit(cpu_job(3, 0, 2));  // backfills around #2
  fifo.kick();
  EXPECT_EQ(engine.started(), (std::vector<cluster::JobId>{1, 3}));
  EXPECT_EQ(fifo.pending(), 1u);
}

TEST(Fifo, BackfillWindowIsBounded) {
  FakeEngine engine(1);
  FifoScheduler fifo(/*backfill_window=*/2);
  fifo.attach(engine.env());
  fifo.submit(cpu_job(1, 0, 8));  // fills the node
  fifo.submit(cpu_job(2, 0, 8));  // blocked
  fifo.submit(cpu_job(3, 0, 8));  // blocked, still inside window? no: the
                                  // window covers 2 examined jobs only
  fifo.submit(cpu_job(4, 0, 1));  // fits, but lies beyond the window
  fifo.kick();
  EXPECT_EQ(engine.started().size(), 1u);
}

TEST(Fifo, TracksPendingGpuJobs) {
  FakeEngine engine(1);
  FifoScheduler fifo;
  fifo.attach(engine.env());
  fifo.submit(cpu_job(1, 0, 8));
  fifo.submit(gpu_job(2, 0, 1, 8));
  fifo.kick();
  EXPECT_EQ(fifo.pending_gpu_jobs(), 1u);
  auto demand = fifo.min_pending_gpu_demand();
  ASSERT_TRUE(demand.has_value());
  EXPECT_EQ(demand->gpus_per_node, 1);
  EXPECT_EQ(demand->cpus_per_node, 8);
}

TEST(Fifo, NoPendingGpuDemandWhenOnlyCpuQueued) {
  FakeEngine engine(1);
  FifoScheduler fifo;
  fifo.attach(engine.env());
  fifo.submit(cpu_job(1, 0, 8));
  fifo.submit(cpu_job(2, 0, 8));
  fifo.kick();
  EXPECT_FALSE(fifo.min_pending_gpu_demand().has_value());
}

// ---------------------------------------------------------------------- DRF

TEST(Drf, FavorsLowestDominantShare) {
  FakeEngine engine(2);  // totals: 16 cores, 4 gpus
  DrfScheduler drf;
  drf.attach(engine.env());
  // Tenant 0 already runs a big GPU job -> large dominant share.
  drf.submit(gpu_job(1, 0, 2, 2));
  drf.kick();
  EXPECT_NEAR(drf.dominant_share(0), 0.5, 1e-9);
  // Both tenants queue one job each; tenant 1 (share 0) goes first.
  drf.submit(gpu_job(2, 0, 1, 2));
  drf.submit(gpu_job(3, 1, 1, 2));
  drf.kick();
  ASSERT_EQ(engine.started().size(), 3u);
  EXPECT_EQ(engine.started()[1], 3u);
  EXPECT_EQ(engine.started()[2], 2u);
}

TEST(Drf, DominantShareUsesMaxDimension) {
  FakeEngine engine(2);  // 16 cores, 4 gpus
  DrfScheduler drf;
  drf.attach(engine.env());
  drf.submit(cpu_job(1, 3, 8));  // cpu share 0.5, gpu share 0
  drf.kick();
  EXPECT_NEAR(drf.dominant_share(3), 0.5, 1e-9);
  drf.on_job_finished(cpu_job(1, 3, 8));
  EXPECT_NEAR(drf.dominant_share(3), 0.0, 1e-9);
}

TEST(Drf, SkipsBlockedTenantWithoutHeadOfLineBlocking) {
  FakeEngine engine(1);  // 8 cores, 2 gpus
  DrfScheduler drf;
  drf.attach(engine.env());
  drf.submit(gpu_job(1, 0, 2, 6));  // takes both GPUs
  drf.kick();
  drf.submit(gpu_job(2, 1, 1, 1));  // blocked: no GPUs left
  drf.submit(cpu_job(3, 2, 2));     // fits: other tenant proceeds
  drf.kick();
  EXPECT_EQ(engine.started(), (std::vector<cluster::JobId>{1, 3}));
  EXPECT_EQ(drf.pending(), 1u);
  EXPECT_EQ(drf.pending_gpu_jobs(), 1u);
}

TEST(Drf, PerTenantQueueStaysFifo) {
  FakeEngine engine(1);
  DrfScheduler drf;
  drf.attach(engine.env());
  drf.submit(gpu_job(1, 0, 2, 2));  // head, takes both GPUs
  drf.submit(cpu_job(2, 0, 1));     // behind head of the same tenant
  drf.kick();
  drf.submit(gpu_job(3, 0, 1, 1));
  drf.kick();
  // Tenant 0's queue is FIFO: jobs 3 and 2 wait behind... job 2 is at the
  // head now (after 1 started); job 2 fits and starts; 3 blocked on GPUs.
  EXPECT_EQ(engine.started(), (std::vector<cluster::JobId>{1, 2}));
  auto demand = drf.min_pending_gpu_demand();
  ASSERT_TRUE(demand.has_value());
  EXPECT_EQ(demand->gpus_per_node, 1);
}

TEST(Drf, MinPendingDemandPicksSmallest) {
  FakeEngine engine(1);
  DrfScheduler drf;
  drf.attach(engine.env());
  drf.submit(gpu_job(1, 0, 2, 8));  // fills node
  drf.kick();
  drf.submit(gpu_job(2, 1, 2, 4));
  drf.submit(gpu_job(3, 2, 1, 6));
  drf.kick();
  auto demand = drf.min_pending_gpu_demand();
  ASSERT_TRUE(demand.has_value());
  EXPECT_EQ(demand->gpus_per_node, 1);
  EXPECT_EQ(demand->cpus_per_node, 6);
}

TEST(Schedulers, ReclaimableDefaultsToZero) {
  FakeEngine engine(1);
  FifoScheduler fifo;
  fifo.attach(engine.env());
  EXPECT_EQ(fifo.reclaimable_cpus(0), 0);
}

// ------------------------------------------------------------ retry policy

TEST(Fifo, EvictionWithoutRetryPolicyRequeuesImmediately) {
  FakeEngine engine(1);
  FifoScheduler fifo;
  fifo.attach(engine.env());
  auto job = cpu_job(1, 0, 2);
  fifo.submit(job);
  fifo.kick();
  ASSERT_EQ(engine.started().size(), 1u);
  engine.finish(1);
  fifo.on_job_evicted(job);  // legacy path: straight back to the head
  EXPECT_EQ(fifo.pending(), 1u);
  fifo.kick();
  EXPECT_EQ(engine.started(), (std::vector<cluster::JobId>{1, 1}));
}

TEST(Fifo, RetryBackoffDelaysResubmissionExponentially) {
  FakeEngine engine(1);
  FifoScheduler fifo;
  auto env = engine.env();
  std::vector<cluster::JobId> abandoned;
  env.abandon_job = [&](cluster::JobId id) { abandoned.push_back(id); };
  fifo.attach(env);
  RetryPolicy policy;
  policy.enabled = true;
  policy.backoff_base_s = 10.0;
  policy.backoff_max_s = 15.0;
  policy.max_retries = 2;
  fifo.set_retry_policy(policy);

  auto job = cpu_job(1, 0, 2);
  fifo.submit(job);
  fifo.kick();
  ASSERT_EQ(engine.started().size(), 1u);

  // First eviction: no immediate requeue; resubmission fires 10 s later.
  engine.finish(1);
  fifo.on_job_evicted(job);
  EXPECT_EQ(fifo.pending(), 0u);
  EXPECT_EQ(fifo.eviction_count(1), 1);
  env.sim->run_until(9.999);
  EXPECT_EQ(engine.started().size(), 1u);
  env.sim->run_until(10.0);
  EXPECT_EQ(engine.started().size(), 2u);

  // Second eviction doubles the delay to 20 s, clamped at 15 s: the job is
  // back at t = 10 + 15 = 25, not earlier.
  engine.finish(1);
  fifo.on_job_evicted(job);
  env.sim->run_until(24.999);
  EXPECT_EQ(engine.started().size(), 2u);
  env.sim->run_until(25.0);
  EXPECT_EQ(engine.started().size(), 3u);

  // Third eviction exceeds max_retries = 2: the job is abandoned, never
  // resubmitted, and its eviction counter is released.
  engine.finish(1);
  fifo.on_job_evicted(job);
  env.sim->run_until(1000.0);
  EXPECT_EQ(engine.started().size(), 3u);
  EXPECT_EQ(abandoned, (std::vector<cluster::JobId>{1}));
  EXPECT_EQ(fifo.eviction_count(1), 0);
}

TEST(Drf, RetryAbandonStillReleasesAccounting) {
  FakeEngine engine(2);  // totals: 16 cores, 4 gpus
  DrfScheduler drf;
  auto env = engine.env();
  std::vector<cluster::JobId> abandoned;
  env.abandon_job = [&](cluster::JobId id) { abandoned.push_back(id); };
  drf.attach(env);
  RetryPolicy policy;
  policy.enabled = true;
  policy.max_retries = 0;  // first eviction already abandons
  drf.set_retry_policy(policy);

  auto job = gpu_job(1, 0, 1, 2);
  drf.submit(job);
  drf.kick();
  ASSERT_EQ(engine.started().size(), 1u);
  EXPECT_NEAR(drf.dominant_share(0), 0.25, 1e-9);  // 1 of 4 GPUs
  engine.finish(1);
  drf.on_job_evicted(job);
  // The abandoned job no longer counts against its tenant's share, and it
  // never re-enters the queue.
  EXPECT_NEAR(drf.dominant_share(0), 0.0, 1e-9);
  EXPECT_EQ(drf.pending(), 0u);
  EXPECT_EQ(abandoned, (std::vector<cluster::JobId>{1}));
  env.sim->run_all();
  EXPECT_EQ(engine.started().size(), 1u);
}

}  // namespace
}  // namespace coda::sched
