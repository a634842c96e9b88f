// Tests for the CODA multi-array scheduler: array routing, reservation
// accounting, borrowing, abort/requeue preemption, cross-array migration and
// online tuning — all through the real engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "coda/coda_scheduler.h"
#include "sim/engine.h"
#include "state/serde.h"
#include "workload/heat.h"

namespace coda::core {
namespace {

using perfmodel::ModelId;

workload::JobSpec gpu_spec(cluster::JobId id, ModelId model, int gpus,
                           double iterations, cluster::TenantId tenant = 0) {
  workload::JobSpec spec;
  spec.id = id;
  spec.tenant = tenant;
  spec.kind = workload::JobKind::kGpuTraining;
  spec.model = model;
  spec.train_config = perfmodel::TrainConfig{1, gpus, 0};
  spec.iterations = iterations;
  spec.requested_cpus = 2 * gpus;
  return spec;
}

workload::JobSpec cpu_spec(cluster::JobId id, int cores, double work,
                           cluster::TenantId tenant = 10) {
  workload::JobSpec spec;
  spec.id = id;
  spec.tenant = tenant;
  spec.kind = workload::JobKind::kCpu;
  spec.cpu_cores = cores;
  spec.cpu_work_core_s = work;
  spec.mem_bw_gbps = 0.5 * cores;
  spec.bw_bound_fraction = 0.1;
  return spec;
}

struct Rig {
  explicit Rig(int nodes, CodaConfig config = {})
      : coda(config), engine(make_config(nodes), &coda) {}

  static sim::EngineConfig make_config(int nodes) {
    sim::EngineConfig cfg;
    cfg.cluster.node_count = nodes;
    return cfg;
  }

  CodaScheduler coda;
  sim::ClusterEngine engine;
};

TEST(CodaScheduler, AssignsAllocatorCoresNotRequested) {
  Rig rig(2);
  // VGG16 1N1G: owner asks 2 (typical under-provisioning); CODA starts at
  // the CV default 3 and converges to the optimum 3.
  rig.engine.inject(gpu_spec(1, ModelId::kVgg16, 1, 1e6), 0.0);
  rig.engine.run_until(1.0);
  bool found = false;
  for (const auto& node : rig.engine.cluster().nodes()) {
    if (node.hosts(1)) {
      EXPECT_EQ(node.allocation_of(1)->cpus, 3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CodaScheduler, TuningConvergesToOptimumAndRecordsOutcome) {
  Rig rig(2);
  rig.engine.inject(gpu_spec(1, ModelId::kWavenet, 1, 1e7), 0.0);
  // Wavenet: N_start = 5 (Speech default), optimum 6. Run long enough for
  // the 90-second profiling steps to converge.
  rig.engine.run_until(3600.0);
  ASSERT_EQ(rig.coda.tuning_outcomes().size(), 1u);
  const auto& outcome = rig.coda.tuning_outcomes()[0];
  EXPECT_EQ(outcome.model, ModelId::kWavenet);
  EXPECT_EQ(outcome.requested_cpus, 2);
  EXPECT_EQ(outcome.start_cpus, 5);
  perfmodel::TrainPerf perf;
  EXPECT_NEAR(outcome.final_cpus,
              perf.optimal_cores(ModelId::kWavenet, {1, 1, 0}), 1);
  EXPECT_GE(outcome.profile_steps, 2);
  EXPECT_LE(outcome.profile_steps, 10);
  // The converged allocation is live on the node.
  for (const auto& node : rig.engine.cluster().nodes()) {
    if (node.hosts(1)) {
      EXPECT_EQ(node.allocation_of(1)->cpus, outcome.final_cpus);
    }
  }
  // History recorded for future N_start.
  EXPECT_EQ(rig.coda.history().size(), 1u);
}

TEST(CodaScheduler, FourGpuJobsLandInFourArray) {
  Rig rig(5);  // four_array = nodes {0,1}, one_array = {2,3,4}
  EXPECT_TRUE(rig.coda.node_in_four_array(0));
  EXPECT_TRUE(rig.coda.node_in_four_array(1));
  EXPECT_FALSE(rig.coda.node_in_four_array(2));
  rig.engine.inject(gpu_spec(1, ModelId::kResnet50, 4, 1e6), 0.0);
  rig.engine.inject(gpu_spec(2, ModelId::kVgg16, 1, 1e6), 0.0);
  rig.engine.run_until(1.0);
  // The 4-GPU job sits on a four-array node, the 1-GPU job elsewhere.
  bool four_on_four = false;
  bool one_on_one = false;
  for (const auto& node : rig.engine.cluster().nodes()) {
    if (node.hosts(1)) {
      four_on_four = rig.coda.node_in_four_array(node.id());
    }
    if (node.hosts(2)) {
      one_on_one = !rig.coda.node_in_four_array(node.id());
    }
  }
  EXPECT_TRUE(four_on_four);
  EXPECT_TRUE(one_on_one);
}

TEST(CodaScheduler, CpuJobsBorrowIdleReservedCoresAndGetEvicted) {
  CodaConfig config;
  config.reserved_cores_per_node = 20;
  config.reservation_update_period_s = 0.0;  // keep the partition fixed
  Rig rig(1, config);  // single node: all one-array (round(0.4) == 0)
  // 24-core CPU job: the CPU array only owns 8 cores, so 16 are borrowed.
  rig.engine.inject(cpu_spec(1, 24, 1e9), 0.0);
  rig.engine.run_until(1.0);
  EXPECT_TRUE(rig.engine.cluster().node(0).hosts(1));
  EXPECT_EQ(rig.coda.reclaimable_cpus(0), 24);
  // A short 4-GPU training job arrives and needs 12 reserved cores: the
  // borrower is aborted and re-queued at the array head (Sec. V-C).
  rig.engine.inject(gpu_spec(2, ModelId::kResnet50, 4, 100.0), 10.0);
  rig.engine.run_until(11.0);
  EXPECT_TRUE(rig.engine.cluster().node(0).hosts(2));
  EXPECT_FALSE(rig.engine.cluster().node(0).hosts(1));
  EXPECT_EQ(rig.coda.preemptions(), 1);
  EXPECT_EQ(rig.engine.records().at(1).preempt_count, 1);
  // Once the training job completes, the aborted CPU job restarts from
  // scratch (its progress was lost).
  rig.engine.run_until(120.0);
  EXPECT_TRUE(rig.engine.records().at(2).completed);
  EXPECT_TRUE(rig.engine.cluster().node(0).hosts(1));
}

TEST(CodaScheduler, EvictionPrepVisitsCandidatesInAscendingIdOrder) {
  CodaConfig config;
  config.reserved_cores_per_node = 20;
  config.reservation_update_period_s = 0.0;
  Rig rig(5, config);  // four_array = nodes {0,1}, one_array = {2,3,4}
  // One 28-core CPU job per node, each borrowing 20 reserved cores.
  for (cluster::JobId id = 1; id <= 5; ++id) {
    rig.engine.inject(cpu_spec(id, 28, 1e9), 0.0);
  }
  rig.engine.run_until(1.0);
  cluster::JobId on_node2 = 0;
  for (cluster::JobId id = 1; id <= 5; ++id) {
    if (rig.engine.cluster().node(2).hosts(id)) {
      on_node2 = id;
    }
  }
  ASSERT_NE(on_node2, 0u);
  for (cluster::NodeId node = 0; node < 5; ++node) {
    ASSERT_EQ(rig.coda.reclaimable_cpus(node), 28);
  }
  // Every one-array node is an eviction candidate for a 1-GPU job; the
  // lowest id goes first, so node 2's borrower is the one aborted and the
  // GPU job takes its place.
  rig.engine.inject(gpu_spec(6, ModelId::kVgg16, 1, 1e6), 10.0);
  rig.engine.run_until(11.0);
  EXPECT_EQ(rig.coda.preemptions(), 1);
  EXPECT_EQ(rig.engine.records().at(on_node2).preempt_count, 1);
  EXPECT_FALSE(rig.engine.cluster().node(2).hosts(on_node2));
  EXPECT_TRUE(rig.engine.cluster().node(2).hosts(6));
}

TEST(CodaScheduler, CpuJobsPreferNonReservedCores) {
  CodaConfig config;
  config.reserved_cores_per_node = 20;
  config.reservation_update_period_s = 0.0;
  Rig rig(1, config);
  rig.engine.inject(cpu_spec(1, 6, 1e9), 0.0);  // fits the 8-core CPU array
  rig.engine.run_until(1.0);
  EXPECT_EQ(rig.coda.reclaimable_cpus(0), 0);  // no borrowing happened
}

TEST(CodaScheduler, OneGpuJobsBorrowFourArrayAndMigrateBack) {
  CodaConfig config;
  config.reservation_update_period_s = 0.0;
  Rig rig(2, config);  // node 0 = four-array, node 1 = one-array
  // Fill the one-array node's GPUs with 1-GPU jobs.
  for (cluster::JobId id = 1; id <= 5; ++id) {
    rig.engine.inject(gpu_spec(id, ModelId::kTransformer, 1, 1e8,
                               static_cast<cluster::TenantId>(id)), 0.0);
  }
  // Two more 1-GPU jobs must borrow the four-array node.
  rig.engine.inject(gpu_spec(6, ModelId::kTransformer, 1, 1e8, 6), 1.0);
  rig.engine.inject(gpu_spec(7, ModelId::kTransformer, 1, 1e8, 7), 1.0);
  rig.engine.run_until(2.0);
  EXPECT_TRUE(rig.engine.cluster().node(0).hosts(6));
  EXPECT_TRUE(rig.engine.cluster().node(0).hosts(7));
  // A 4-GPU job reclaims its sub-array: borrowers are live-migrated.
  rig.engine.inject(gpu_spec(8, ModelId::kResnet50, 4, 1e5, 8), 10.0);
  rig.engine.run_until(11.0);
  EXPECT_TRUE(rig.engine.cluster().node(0).hosts(8));
  EXPECT_GE(rig.coda.migrations(), 2);
  // Migration preserves progress: preempt_count grows but work is kept
  // (the jobs are still running somewhere or queued, never restarted from
  // zero — asserted via preempt bookkeeping).
  EXPECT_GE(rig.engine.records().at(6).preempt_count +
                rig.engine.records().at(7).preempt_count,
            2);
}

TEST(CodaScheduler, UserFacingBorrowersAreNeverEvicted) {
  CodaConfig config;
  config.reserved_cores_per_node = 20;
  config.reservation_update_period_s = 0.0;
  Rig rig(1, config);
  // A user-facing inference job borrows deep into the reservation.
  auto inference = cpu_spec(1, 24, 1e9, 7);
  inference.user_facing = true;
  rig.engine.inject(inference, 0.0);
  rig.engine.run_until(1.0);
  EXPECT_TRUE(rig.engine.cluster().node(0).hosts(1));
  EXPECT_EQ(rig.coda.reclaimable_cpus(0), 0);  // nothing evictable
  // A GPU job that would need those cores cannot preempt it and queues.
  rig.engine.inject(gpu_spec(2, ModelId::kResnet50, 4, 100.0), 10.0);
  rig.engine.run_until(11.0);
  EXPECT_FALSE(rig.engine.cluster().node(0).hosts(2));
  EXPECT_EQ(rig.coda.preemptions(), 0);
  EXPECT_EQ(rig.coda.pending_gpu_jobs(), 1u);
  EXPECT_EQ(rig.engine.records().at(1).preempt_count, 0);
}

TEST(CodaScheduler, DrfOrderWithinCpuArray) {
  CodaConfig config;
  config.reservation_update_period_s = 0.0;
  Rig rig(1, config);
  // Tenant 10 hogs the CPU array; tenant 11's job should start first once
  // space frees even though it arrived later.
  rig.engine.inject(cpu_spec(1, 8, 1e9, 10), 0.0);
  rig.engine.run_until(1.0);
  rig.engine.inject(cpu_spec(2, 8, 1e9, 10), 2.0);
  rig.engine.inject(cpu_spec(3, 8, 1e9, 11), 3.0);
  rig.engine.run_until(4.0);
  // Both are running (borrowing allowed), but tenant 11 got priority: with
  // only one free slot the DRF order favors the zero-usage tenant.
  EXPECT_TRUE(rig.engine.cluster().node(0).hosts(3));
}

TEST(CodaScheduler, PendingDemandReflectsAllocatorCores) {
  CodaConfig config;
  config.reservation_update_period_s = 0.0;
  Rig rig(1, config);
  // Saturate all GPUs.
  rig.engine.inject(gpu_spec(1, ModelId::kResnet50, 4, 1e9, 1), 0.0);
  rig.engine.inject(gpu_spec(2, ModelId::kVgg16, 1, 1e9, 2), 0.0);
  rig.engine.run_until(1.0);
  rig.engine.inject(gpu_spec(3, ModelId::kVgg16, 1, 1e9, 3), 2.0);
  rig.engine.run_until(3.0);
  EXPECT_EQ(rig.coda.pending_gpu_jobs(), 1u);
  auto demand = rig.coda.min_pending_gpu_demand();
  ASSERT_TRUE(demand.has_value());
  EXPECT_EQ(demand->gpus_per_node, 1);
  EXPECT_EQ(demand->cpus_per_node, 3);  // CV default N_start
}

TEST(CodaScheduler, ReservationUpdatesFromHistory) {
  CodaConfig config;
  config.reservation_update_period_s = 100.0;
  Rig rig(4, config);
  EXPECT_EQ(rig.coda.reserved_cores_per_node(), 20);
  // Complete a couple of jobs long enough for their tuning sessions to
  // converge, then let the periodic update re-derive the reservation.
  rig.engine.inject(gpu_spec(1, ModelId::kTransformer, 1, 3000.0, 1), 0.0);
  rig.engine.inject(gpu_spec(2, ModelId::kVgg16, 1, 4000.0, 2), 0.0);
  rig.engine.run_until(4000.0);
  ASSERT_GE(rig.coda.history().size(), 2u);
  // mean cores/GPU for {Transformer: 2, VGG: 3} = 2.5; x5 GPUs -> 12-13.
  EXPECT_LT(rig.coda.reserved_cores_per_node(), 20);
  EXPECT_GE(rig.coda.reserved_cores_per_node(), 10);
}

TEST(CodaScheduler, MultiArrayDisabledUsesWholeCluster) {
  CodaConfig config;
  config.multi_array_enabled = false;
  Rig rig(2, config);
  EXPECT_EQ(rig.coda.reserved_cores_per_node(), 0);
  EXPECT_FALSE(rig.coda.node_in_four_array(0));
  rig.engine.inject(gpu_spec(1, ModelId::kResnet50, 4, 1e5), 0.0);
  rig.engine.inject(cpu_spec(2, 24, 1e5), 0.0);
  rig.engine.run_until(1.0);
  // Both start immediately: no reservation, one flat array.
  EXPECT_EQ(rig.engine.running_jobs(), 2u);
}

TEST(CodaScheduler, StaticBandwidthCapsApplyAtCpuJobStart) {
  CodaConfig config;
  config.eliminator.enabled = false;
  config.static_bw_cap_gbps = 10.0;  // Kelp-like baseline
  config.reservation_update_period_s = 0.0;
  Rig rig(2, config);  // node 0 has MBA (fraction 0.5), node 1 does not
  // A bandwidth-heavy batch job: capped to 10 GB/s the moment it starts on
  // the MBA node, so its Amdahl-bound progress slows accordingly.
  auto hog = cpu_spec(1, 8, 8.0 * 100.0);
  hog.mem_bw_gbps = 40.0;
  hog.bw_bound_fraction = 0.5;
  rig.engine.inject(hog, 0.0);
  rig.engine.run_until(1.0);
  const auto sample0 = rig.engine.sample(0);
  const auto sample1 = rig.engine.sample(1);
  const double achieved = sample0.total_gbps + sample1.total_gbps;
  EXPECT_NEAR(achieved, 10.0, 1e-6);  // capped from 40
  // rate factor = 1/(0.5 + 0.5*4) = 0.4 -> 100 s of work takes 250 s.
  rig.engine.drain(1e6);
  EXPECT_NEAR(rig.engine.records().at(1).finish_time, 250.0, 1e-6);
}

TEST(CodaScheduler, StaticCapsSkipUserFacingJobs) {
  CodaConfig config;
  config.eliminator.enabled = false;
  config.static_bw_cap_gbps = 10.0;
  config.reservation_update_period_s = 0.0;
  Rig rig(2, config);
  auto inference = cpu_spec(1, 8, 8.0 * 100.0);
  inference.mem_bw_gbps = 40.0;
  inference.user_facing = true;
  rig.engine.inject(inference, 0.0);
  rig.engine.run_until(1.0);
  const double achieved =
      rig.engine.sample(0).total_gbps + rig.engine.sample(1).total_gbps;
  EXPECT_NEAR(achieved, 40.0, 1e-6);  // uncapped
}

TEST(CodaScheduler, NodeFailureDuringTuningScrubsThrottleAndRestarts) {
  Rig rig(1);
  // A sensitive trainer and a bandwidth hog share the only node: the
  // eliminator's periodic checks throttle the hog while the trainer's
  // adaptive-allocation session is still profiling (steps take 90 s).
  // Wavenet starts at the Speech N_start of 5 cores (optimum 6), so its
  // prep stage is exposed and bandwidth pressure visibly drops its GPU
  // utilization.
  rig.engine.inject(gpu_spec(1, ModelId::kWavenet, 1, 1e7), 0.0);
  // 20 threads x 8 GB/s = 160 GB/s pushes the node past its 150 GB/s.
  auto hog = workload::make_heat_job(workload::HeatParams{20}, 1e9);
  hog.id = 2;
  rig.engine.inject(hog, 0.0);
  rig.engine.run_until(60.0);
  ASSERT_TRUE(rig.coda.eliminator().is_throttled(2));
  ASSERT_EQ(rig.coda.tuning_outcomes().size(), 0u);  // session still open

  // The node dies mid-session: both jobs are evicted, the open tuning
  // session must be cancelled, and the hog's throttle record scrubbed.
  ASSERT_TRUE(rig.engine.fail_node(0).ok());
  EXPECT_FALSE(rig.coda.eliminator().is_throttled(2));
  EXPECT_EQ(rig.engine.records().at(1).evict_count, 1);
  EXPECT_EQ(rig.engine.records().at(2).evict_count, 1);

  ASSERT_TRUE(rig.engine.recover_node(0).ok());
  rig.engine.run_until(400.0);
  // Both jobs restarted cleanly; the trainer re-entered tuning.
  EXPECT_TRUE(rig.engine.cluster().node(0).hosts(1));
  EXPECT_TRUE(rig.engine.cluster().node(0).hosts(2));
  EXPECT_EQ(rig.engine.records().at(1).restart_count, 1);
  EXPECT_EQ(rig.engine.records().at(2).restart_count, 1);
}

TEST(CodaScheduler, MultiNodeJobsTunePerNode) {
  Rig rig(4);
  workload::JobSpec spec = gpu_spec(1, ModelId::kDeepSpeech, 2, 1e7);
  spec.train_config = perfmodel::TrainConfig{2, 2, 0};
  rig.engine.inject(spec, 0.0);
  rig.engine.run_until(3600.0);
  ASSERT_EQ(rig.coda.tuning_outcomes().size(), 1u);
  const int final_cpus = rig.coda.tuning_outcomes()[0].final_cpus;
  EXPECT_LE(final_cpus, 2);  // multi-node demand collapses (Sec. IV-B2)
  int nodes_hosting = 0;
  for (const auto& node : rig.engine.cluster().nodes()) {
    if (node.hosts(1)) {
      ++nodes_hosting;
      EXPECT_EQ(node.allocation_of(1)->cpus, final_cpus);
    }
  }
  EXPECT_EQ(nodes_hosting, 2);
}

// ------------------------------------------------ exits taken mid-tuning
//
// Each way a job leaves reaches one release for its kind. A GPU job that
// finishes mid-tuning publishes its session; any other exit drops it.

size_t outcomes_of(const CodaScheduler& coda, cluster::JobId job) {
  return static_cast<size_t>(std::count_if(
      coda.tuning_outcomes().begin(), coda.tuning_outcomes().end(),
      [job](const auto& o) { return o.job == job; }));
}

size_t history_of(const CodaScheduler& coda, cluster::TenantId tenant) {
  return static_cast<size_t>(std::count_if(
      coda.history().records().begin(), coda.history().records().end(),
      [tenant](const HistoryRecord& h) { return h.tenant == tenant; }));
}

// The cores `tenant` holds in the CPU array, as CODA's snapshot rows say:
// the `au` rows before the `four_gpu_array` header are the CPU array's.
int cpu_array_usage(const CodaScheduler& coda, cluster::TenantId tenant) {
  state::Writer w;
  coda.save_state(&w);
  std::istringstream rows(w.text());
  const std::string prefix = "au " + std::to_string(tenant) + " ";
  for (std::string row; std::getline(rows, row) &&
                        row.rfind("four_gpu_array ", 0) != 0;) {
    if (row.rfind(prefix, 0) == 0) {
      return std::stoi(row.substr(prefix.size()));
    }
  }
  return 0;
}

TEST(CodaScheduler, FinishMidTuningPublishesItsCoresAndStepsSoFar) {
  perfmodel::TrainPerf perf;
  // Wavenet starts at 5 cores; its first tick (90 s) probes 4 cores.
  const double per_s =
      1.0 / perf.iter_time(ModelId::kWavenet, perfmodel::TrainConfig{1, 1, 0},
                           5);
  for (const int steps : {0, 1}) {
    Rig rig(2);
    rig.engine.inject(
        gpu_spec(1, ModelId::kWavenet, 1, (45.0 + 90.0 * steps) * per_s),
        0.0);
    rig.engine.run_until(1000.0);
    const auto& record = rig.engine.records().at(1);
    ASSERT_TRUE(record.completed);
    ASSERT_GT(record.finish_time, 90.0 * steps);
    ASSERT_LT(record.finish_time, 90.0 * (steps + 1));
    ASSERT_EQ(rig.coda.tuning_outcomes().size(), 1u);
    const auto& outcome = rig.coda.tuning_outcomes()[0];
    EXPECT_EQ(outcome.job, 1u);
    EXPECT_EQ(outcome.start_cpus, 5);
    EXPECT_EQ(outcome.final_cpus, steps == 0 ? 5 : 4);
    EXPECT_EQ(outcome.profile_steps, steps);
    // Only a session that took a step records history.
    EXPECT_EQ(rig.coda.history().size(), static_cast<size_t>(steps));
  }
}

TEST(CodaScheduler, EvictionMidTuningPublishesNothingUntilRestartConverges) {
  Rig rig(1);
  rig.engine.inject(gpu_spec(1, ModelId::kWavenet, 1, 1e7), 0.0);
  rig.engine.run_until(100.0);  // one profiling step taken at 90 s
  ASSERT_TRUE(rig.engine.fail_node(0).ok());
  EXPECT_EQ(rig.engine.records().at(1).evict_count, 1);
  EXPECT_TRUE(rig.coda.tuning_outcomes().empty());
  EXPECT_EQ(rig.coda.history().size(), 0u);

  ASSERT_TRUE(rig.engine.recover_node(0).ok());
  rig.engine.run_until(3600.0);
  EXPECT_EQ(rig.engine.records().at(1).restart_count, 1);
  EXPECT_EQ(outcomes_of(rig.coda, 1), 1u);
  EXPECT_EQ(rig.coda.tuning_outcomes().size(), 1u);
  EXPECT_EQ(rig.coda.history().size(), 1u);
}

TEST(CodaScheduler, MigrationMidTuningPublishesNothingUntilRestartConverges) {
  CodaConfig config;
  config.reservation_update_period_s = 0.0;
  Rig rig(2, config);  // node 0 = four-array, node 1 = one-array
  // Five 1-GPU jobs fill the one-array node; jobs 6 and 7 borrow node 0.
  for (cluster::JobId id = 1; id <= 7; ++id) {
    rig.engine.inject(gpu_spec(id, ModelId::kTransformer, 1, 1e8,
                               static_cast<cluster::TenantId>(id)),
                      id <= 5 ? 0.0 : 1.0);
  }
  rig.engine.run_until(100.0);  // one profiling step each
  ASSERT_TRUE(rig.engine.cluster().node(0).hosts(6));
  ASSERT_TRUE(rig.engine.cluster().node(0).hosts(7));
  // A 4-GPU job reclaims node 0: both borrowers migrate mid-tuning.
  rig.engine.inject(gpu_spec(8, ModelId::kResnet50, 4, 1e4, 8), 100.0);
  rig.engine.run_until(101.0);
  ASSERT_EQ(rig.coda.migrations(), 2);
  ASSERT_TRUE(rig.engine.cluster().node(0).hosts(8));
  EXPECT_TRUE(rig.coda.tuning_outcomes().empty());
  EXPECT_EQ(rig.coda.history().size(), 0u);

  rig.engine.run_until(20000.0);
  EXPECT_EQ(rig.coda.migrations(), 2);
  for (cluster::JobId id : {6, 7}) {
    EXPECT_GE(rig.engine.records().at(id).preempt_count, 1) << id;
    EXPECT_EQ(outcomes_of(rig.coda, id), 1u) << id;
    EXPECT_EQ(history_of(rig.coda, static_cast<cluster::TenantId>(id)), 1u)
        << id;
  }
}

TEST(CodaScheduler, AbortedBorrowerLeavesNoThrottleAndNoArrayUsage) {
  Rig rig(1);
  // The Wavenet trainer and the bandwidth hog of the node-failure test
  // above: the hog borrows reserved cores and is throttled by 60 s.
  rig.engine.inject(gpu_spec(1, ModelId::kWavenet, 1, 1e7), 0.0);
  auto hog = workload::make_heat_job(workload::HeatParams{20}, 1e9);
  hog.id = 2;
  hog.tenant = 20;
  rig.engine.inject(hog, 0.0);
  rig.engine.run_until(60.0);
  ASSERT_TRUE(rig.coda.eliminator().is_throttled(2));
  ASSERT_GT(rig.coda.reclaimable_cpus(0), 0);
  ASSERT_EQ(cpu_array_usage(rig.coda, 20), 20);

  // A second trainer needs 5 of the cores the hog holds: the hog is
  // aborted and waits at the head of the CPU array.
  rig.engine.inject(gpu_spec(3, ModelId::kWavenet, 1, 1e7, 3), 60.0);
  rig.engine.run_until(61.0);
  ASSERT_EQ(rig.coda.preemptions(), 1);
  EXPECT_TRUE(rig.engine.cluster().node(0).hosts(3));
  EXPECT_FALSE(rig.engine.cluster().node(0).hosts(2));
  EXPECT_FALSE(rig.coda.eliminator().is_throttled(2));
  EXPECT_EQ(rig.coda.reclaimable_cpus(0), 0);
  EXPECT_EQ(cpu_array_usage(rig.coda, 20), 0);
}

}  // namespace
}  // namespace coda::core
