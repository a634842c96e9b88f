// Equivalence suite for the hot-path optimizations: the memoized TrainPerf
// must be bit-for-bit identical to its ref_* (unmemoized) arithmetic, and
// the incremental (dirty-set) engine must produce byte-identical experiment
// reports to the eager reference engine. These tests are the contract that
// lets the memo/incremental paths stay on by default.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "perfmodel/train_perf.h"
#include "sim/experiment.h"
#include "sim/report_io.h"
#include "workload/trace_gen.h"

namespace coda::perfmodel {
namespace {

uint64_t bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// The contention grid covers the interesting regimes: none, epsilon (hash
// quantization must not conflate it with none), moderate, the eliminator
// threshold region, and HEAT-grade starvation; GPU inflation spans the PCIe
// knee. Values are deliberately not round so the exact-bit key is exercised.
constexpr double kPrepInflations[] = {1.0, 1.0000001, 1.03, 1.25, 2.0, 7.5};
constexpr double kGpuInflations[] = {1.0, 1.01, 1.4};

TEST(PerfEquivalence, MemoizedMatchesReferenceBitForBit) {
  TrainPerf memo;
  TrainPerf ref;

  const TrainConfig configs[] = {config_1n1g(), config_1n4g(), config_2n4g()};
  for (ModelId id : kAllModels) {
    const int batch = model_params(id).default_batch;
    for (const TrainConfig& cfg : configs) {
      for (int cores = 1; cores <= 64; ++cores) {
        for (double pi : kPrepInflations) {
          for (double gi : kGpuInflations) {
            const ContentionFactors f{pi, gi};
            SCOPED_TRACE(std::string(to_string(id)) + " " + cfg.name() +
                         " cores=" + std::to_string(cores) +
                         " pi=" + std::to_string(pi) +
                         " gi=" + std::to_string(gi));
            ASSERT_EQ(bits(memo.prep_time(id, cfg, cores, f)),
                      bits(ref.ref_prep_time(id, cfg, cores, f)));
            ASSERT_EQ(bits(memo.gpu_phase_time(id, cfg, f)),
                      bits(ref.ref_gpu_phase_time(id, cfg, f)));
            const double ref_iter = ref.ref_iter_time(id, cfg, cores, f);
            ASSERT_EQ(bits(memo.iter_time(id, cfg, cores, f)),
                      bits(ref_iter));
            ASSERT_EQ(bits(memo.gpu_utilization(id, cfg, cores, f)),
                      bits(ref.ref_gpu_utilization(id, cfg, cores, f)));
            ASSERT_EQ(bits(memo.throughput(id, cfg, cores, f)),
                      bits(1.0 / ref_iter));
            ASSERT_EQ(bits(memo.samples_per_second(id, cfg, cores, f)),
                      bits(1.0 / ref_iter * batch * cfg.total_gpus()));
          }
        }
      }
    }
  }
  // The grid revisits every (model, cfg, cores, factors) point six times
  // (once per probe), so the memo must be doing real work by the end.
  EXPECT_GT(memo.cache_stats().hits, memo.cache_stats().misses);
  // The reference arithmetic never touches the caches.
  EXPECT_EQ(ref.cache_stats().hits, 0u);
  EXPECT_EQ(ref.cache_stats().misses, 0u);
}

TEST(PerfEquivalence, OptimalCoresAndDemandsMatchReference) {
  TrainPerf memo;
  TrainPerf ref;

  const TrainConfig configs[] = {config_1n1g(), config_1n4g(), config_2n4g()};
  for (ModelId id : kAllModels) {
    for (const TrainConfig& cfg : configs) {
      SCOPED_TRACE(std::string(to_string(id)) + " " + cfg.name());
      for (int max_cores : {4, 28, 64}) {
        EXPECT_EQ(memo.optimal_cores(id, cfg, max_cores),
                  ref.ref_optimal_cores(id, cfg, max_cores));
        EXPECT_EQ(memo.optimal_cores(id, cfg, max_cores, 0.05),
                  ref.ref_optimal_cores(id, cfg, max_cores, 0.05));
      }
      for (int cores = 1; cores <= 64; ++cores) {
        ASSERT_EQ(bits(memo.mem_bw_demand_gbps(id, cfg, cores)),
                  bits(ref.ref_mem_bw_demand_gbps(id, cfg, cores)))
            << "cores=" << cores;
        ASSERT_EQ(bits(memo.pcie_demand_gbps(id, cfg, cores)),
                  bits(ref.ref_pcie_demand_gbps(id, cfg, cores)))
            << "cores=" << cores;
      }
    }
  }
}

TEST(PerfEquivalence, RepeatedCallsHitTheCacheAndStayIdentical) {
  TrainPerf perf;
  const TrainConfig cfg = config_1n4g();
  const ContentionFactors f{1.3777, 1.0421};

  const double first = perf.iter_time(ModelId::kResnet50, cfg, 9, f);
  const auto after_first = perf.cache_stats();
  EXPECT_GE(after_first.misses, 1u);

  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(bits(perf.iter_time(ModelId::kResnet50, cfg, 9, f)),
              bits(first));
  }
  const auto after_loop = perf.cache_stats();
  EXPECT_EQ(after_loop.misses, after_first.misses);
  EXPECT_GE(after_loop.hits, after_first.hits + 100);

  // The cached bits are the reference arithmetic's bits.
  EXPECT_EQ(bits(perf.ref_iter_time(ModelId::kResnet50, cfg, 9, f)),
            bits(first));
}

TEST(PerfEquivalence, NearIdenticalFactorsDoNotConflate) {
  // Two factor pairs closer than the hash quantization step must still
  // evaluate independently: equality on the exact bits, never the hash.
  TrainPerf memo;
  TrainPerf ref;
  const TrainConfig cfg = config_1n1g();
  const double base = 1.25;
  const double nudged = std::nextafter(base, 2.0);
  for (ModelId id : kAllModels) {
    const ContentionFactors fa{base, 1.0};
    const ContentionFactors fb{nudged, 1.0};
    ASSERT_EQ(bits(memo.iter_time(id, cfg, 7, fa)),
              bits(ref.ref_iter_time(id, cfg, 7, fa)));
    ASSERT_EQ(bits(memo.iter_time(id, cfg, 7, fb)),
              bits(ref.ref_iter_time(id, cfg, 7, fb)));
  }
}

}  // namespace
}  // namespace coda::perfmodel

namespace coda::sim {
namespace {

std::vector<workload::JobSpec> small_seed_trace() {
  // A compressed cut of the standard evaluation trace: same generator and
  // marginals, half a day instead of a week so the four replays stay fast.
  workload::TraceConfig cfg = standard_week_trace();
  cfg.duration_s = 43200.0;
  cfg.cpu_jobs /= 14;
  cfg.gpu_jobs /= 14;
  return workload::TraceGenerator(cfg).generate();
}

// The incremental engine (dirty-set batching, reschedule skips, memoized
// perf model) must reproduce the eager reference engine's report *byte for
// byte* — serialize_report writes doubles as hexfloats, so this is exact
// trajectory equality, not tolerance-based agreement.
TEST(ReportEquivalence, IncrementalMatchesEagerByteForByte) {
  const auto trace = small_seed_trace();
  for (Policy policy : {Policy::kFifo, Policy::kCoda}) {
    SCOPED_TRACE(to_string(policy));
    ExperimentConfig incremental;
    incremental.engine.incremental_recompute = true;
    ExperimentConfig eager;
    eager.engine.incremental_recompute = false;

    const ExperimentReport a = run_experiment(policy, trace, incremental);
    const ExperimentReport b = run_experiment(policy, trace, eager);
    EXPECT_EQ(serialize_report(a), serialize_report(b));
    EXPECT_EQ(a.events_dispatched, b.events_dispatched);
    EXPECT_EQ(a.completed, b.completed);
  }
}

}  // namespace
}  // namespace coda::sim
