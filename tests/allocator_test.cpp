// Tests for the adaptive CPU allocator: N_start rules (Sec. V-B1) and the
// feedback tuner (Sec. V-B2), validated against the performance model as
// ground truth.
#include <gtest/gtest.h>

#include <cmath>

#include "coda/allocator.h"
#include "perfmodel/train_perf.h"

namespace coda::core {
namespace {

workload::JobSpec gpu_spec(perfmodel::ModelId model,
                           perfmodel::TrainConfig cfg = {},
                           cluster::TenantId tenant = 0) {
  workload::JobSpec spec;
  spec.id = 1;
  spec.tenant = tenant;
  spec.kind = workload::JobKind::kGpuTraining;
  spec.model = model;
  spec.train_config = cfg;
  spec.requested_cpus = 2;
  return spec;
}

// Runs a full tuning session against the analytic model; returns the final
// core count and steps used, and the session itself.
struct TuneResult {
  int final_cores = 0;
  int steps = 0;
  AdaptiveCpuAllocator::Session session;
};

TuneResult run_session(const AdaptiveCpuAllocator& allocator,
                       const workload::JobSpec& spec,
                       const perfmodel::TrainPerf& perf) {
  int cores = allocator.start_cores(spec);
  TuneResult result;
  result.session = allocator.begin(cores);
  while (!result.session.converged()) {
    const double util =
        perf.gpu_utilization(spec.model, spec.train_config, cores);
    auto next = allocator.step(result.session, util);
    if (!next.has_value()) {
      break;
    }
    cores = *next;
  }
  result.final_cores = result.session.current;
  result.steps = result.session.steps;
  return result;
}

// ------------------------------------------------------------------ N_start

TEST(StartCores, CategoryDefaultsScaleWithLocalGpus) {
  HistoryLog history;
  AdaptiveCpuAllocator allocator(AllocatorConfig{}, &history);
  auto cv = gpu_spec(perfmodel::ModelId::kResnet50);
  EXPECT_EQ(allocator.start_cores(cv), 3);
  cv.train_config.gpus_per_node = 4;
  EXPECT_EQ(allocator.start_cores(cv), 12);
  auto nlp = gpu_spec(perfmodel::ModelId::kBiAttFlow);
  EXPECT_EQ(allocator.start_cores(nlp), 5);
  auto speech = gpu_spec(perfmodel::ModelId::kWavenet);
  EXPECT_EQ(allocator.start_cores(speech), 5);
}

TEST(StartCores, HintsAdjustStart) {
  HistoryLog history;
  AdaptiveCpuAllocator allocator(AllocatorConfig{}, &history);
  auto spec = gpu_spec(perfmodel::ModelId::kWavenet);  // default 5
  spec.hints.pipelined = true;                         // -1
  EXPECT_EQ(allocator.start_cores(spec), 4);
  spec.hints.large_weights = true;                     // -1
  EXPECT_EQ(allocator.start_cores(spec), 3);
  spec.hints.complex_prep = true;                      // +1
  EXPECT_EQ(allocator.start_cores(spec), 4);
}

TEST(StartCores, OwnerHistoryOverridesDefaults) {
  HistoryLog history;
  history.record(HistoryRecord{7, perfmodel::ModelCategory::kSpeech,
                               perfmodel::ModelId::kWavenet, 1, 1, 6});
  history.record(HistoryRecord{7, perfmodel::ModelCategory::kSpeech,
                               perfmodel::ModelId::kDeepSpeech, 1, 1, 4});
  AdaptiveCpuAllocator allocator(AllocatorConfig{}, &history);
  auto spec = gpu_spec(perfmodel::ModelId::kWavenet, {}, 7);
  // Largest historical core count in the category (Sec. V-B1).
  EXPECT_EQ(allocator.start_cores(spec), 6);
  // A different tenant is unaffected.
  auto other = gpu_spec(perfmodel::ModelId::kWavenet, {}, 8);
  EXPECT_EQ(allocator.start_cores(other), 5);
}

TEST(StartCores, HistoryPrefersSameGpuShape) {
  HistoryLog history;
  history.record(HistoryRecord{7, perfmodel::ModelCategory::kCV,
                               perfmodel::ModelId::kAlexnet, 1, 4, 13});
  history.record(HistoryRecord{7, perfmodel::ModelCategory::kCV,
                               perfmodel::ModelId::kAlexnet, 1, 1, 6});
  AdaptiveCpuAllocator allocator(AllocatorConfig{}, &history);
  auto spec = gpu_spec(perfmodel::ModelId::kAlexnet, {}, 7);  // 1N1G
  EXPECT_EQ(allocator.start_cores(spec), 6);
}

TEST(StartCores, WorstCaseNoCategoryUsesAnyHistory) {
  HistoryLog history;
  AdaptiveCpuAllocator allocator(AllocatorConfig{}, &history);
  auto spec = gpu_spec(perfmodel::ModelId::kDeepSpeech, {}, 9);
  spec.hints.category_known = false;
  // No history at all: conservative default (4 per local GPU).
  EXPECT_EQ(allocator.start_cores(spec), 4);
  history.record(HistoryRecord{9, perfmodel::ModelCategory::kNLP,
                               perfmodel::ModelId::kTransformer, 1, 1, 7});
  EXPECT_EQ(allocator.start_cores(spec), 7);
}

// -------------------------------------------------------------------- tuner

class TunerPerModel : public testing::TestWithParam<perfmodel::ModelId> {};

INSTANTIATE_TEST_SUITE_P(
    AllModels, TunerPerModel, testing::ValuesIn(perfmodel::kAllModels),
    [](const testing::TestParamInfo<perfmodel::ModelId>& info) {
      return std::string(perfmodel::to_string(info.param));
    });

TEST_P(TunerPerModel, ConvergesNearOptimum1N1G) {
  HistoryLog history;
  AdaptiveCpuAllocator allocator(AllocatorConfig{}, &history);
  perfmodel::TrainPerf perf;
  auto spec = gpu_spec(GetParam());
  const auto result = run_session(allocator, spec, perf);
  const int opt = perf.optimal_cores(GetParam(), spec.train_config);
  EXPECT_NEAR(result.final_cores, opt, 1) << "steps=" << result.steps;
  EXPECT_LE(result.steps, AllocatorConfig{}.max_profile_steps);
  // The found allocation is within 2% of the best utilization.
  EXPECT_GE(perf.gpu_utilization(GetParam(), spec.train_config,
                                 result.final_cores),
            perf.gpu_utilization(GetParam(), spec.train_config, opt) * 0.98);
}

TEST_P(TunerPerModel, ConvergesNearOptimum1N4G) {
  HistoryLog history;
  AdaptiveCpuAllocator allocator(AllocatorConfig{}, &history);
  perfmodel::TrainPerf perf;
  auto spec = gpu_spec(GetParam(), perfmodel::config_1n4g());
  const auto result = run_session(allocator, spec, perf);
  const int opt = perf.optimal_cores(GetParam(), spec.train_config);
  EXPECT_GE(perf.gpu_utilization(GetParam(), spec.train_config,
                                 result.final_cores),
            perf.gpu_utilization(GetParam(), spec.train_config, opt) * 0.97);
}

TEST_P(TunerPerModel, WarmHistoryConvergesInAtMostFourSteps) {
  // Table II: with a reasonable N_start the optimum is found in 3-4
  // profiling steps. A warm owner history lands N_start at N_opt.
  perfmodel::TrainPerf perf;
  HistoryLog history;
  const auto& params = perfmodel::model_params(GetParam());
  const int opt = perf.optimal_cores(GetParam(), {});
  history.record(
      HistoryRecord{0, params.category, GetParam(), 1, 1, opt});
  AdaptiveCpuAllocator allocator(AllocatorConfig{}, &history);
  auto spec = gpu_spec(GetParam());
  const auto result = run_session(allocator, spec, perf);
  EXPECT_EQ(result.final_cores, opt);
  EXPECT_LE(result.steps, 4);
}

TEST(Tuner, WalksDownFromOverAllocation) {
  // A user asked for 20+ cores; the tuner must slim the job down.
  HistoryLog history;
  history.record(HistoryRecord{3, perfmodel::ModelCategory::kSpeech,
                               perfmodel::ModelId::kDeepSpeech, 1, 1, 20});
  AdaptiveCpuAllocator allocator(AllocatorConfig{}, &history);
  perfmodel::TrainPerf perf;
  auto spec = gpu_spec(perfmodel::ModelId::kDeepSpeech, {}, 3);
  const auto result = run_session(allocator, spec, perf);
  const int opt = perf.optimal_cores(perfmodel::ModelId::kDeepSpeech, {});
  EXPECT_LE(result.final_cores, opt + 1);
  EXPECT_GE(perf.gpu_utilization(spec.model, spec.train_config,
                                 result.final_cores),
            perf.gpu_utilization(spec.model, spec.train_config, opt) * 0.98);
}

TEST(Tuner, FinishRecordsHistory) {
  HistoryLog history;
  AdaptiveCpuAllocator allocator(AllocatorConfig{}, &history);
  perfmodel::TrainPerf perf;
  auto spec = gpu_spec(perfmodel::ModelId::kVgg16);
  const auto result = run_session(allocator, spec, perf);
  allocator.finish(spec, result.session);
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history.records()[0].model, perfmodel::ModelId::kVgg16);
  EXPECT_NEAR(history.records()[0].optimal_cores,
              perf.optimal_cores(perfmodel::ModelId::kVgg16, {}), 1);
}

TEST(Tuner, SettleForcesConvergence) {
  HistoryLog history;
  AdaptiveCpuAllocator allocator(AllocatorConfig{}, &history);
  auto session = allocator.begin(5);
  allocator.step(session, 0.4);
  allocator.settle(session, 7);
  EXPECT_TRUE(session.converged());
  EXPECT_EQ(session.current, 7);
}

TEST(Tuner, StepBudgetIsHardCap) {
  AllocatorConfig cfg;
  cfg.max_profile_steps = 3;
  HistoryLog history;
  AdaptiveCpuAllocator allocator(cfg, &history);
  auto session = allocator.begin(2);
  // Feed a pathological utilization signal; the session must still stop.
  int steps = 0;
  while (!session.converged() && steps < 10) {
    allocator.step(session, 0.5 + 0.001 * steps);
    ++steps;
  }
  EXPECT_LE(session.steps, 3);
  EXPECT_TRUE(session.converged());
}

class SearchModes : public testing::TestWithParam<SearchMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, SearchModes,
                         testing::Values(SearchMode::kHillClimb,
                                         SearchMode::kStepwise,
                                         SearchMode::kOneShot),
                         [](const testing::TestParamInfo<SearchMode>& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST_P(SearchModes, AllModesReachNearOptimalUtilization) {
  perfmodel::TrainPerf perf;
  for (perfmodel::ModelId m : perfmodel::kAllModels) {
    core::HistoryLog history;
    AllocatorConfig cfg;
    cfg.search_mode = GetParam();
    AdaptiveCpuAllocator allocator(cfg, &history);
    auto spec = gpu_spec(m);
    const auto result = run_session(allocator, spec, perf);
    const int opt = perf.optimal_cores(m, spec.train_config);
    EXPECT_GE(
        perf.gpu_utilization(m, spec.train_config, result.final_cores),
        perf.gpu_utilization(m, spec.train_config, opt) * 0.95)
        << to_string(m) << " mode=" << to_string(GetParam());
    EXPECT_LE(result.steps, cfg.max_profile_steps);
  }
}

TEST(SearchModes, StepwiseWalksOneCoreAtATime) {
  perfmodel::TrainPerf perf;
  core::HistoryLog history;
  AllocatorConfig cfg;
  cfg.search_mode = SearchMode::kStepwise;
  AdaptiveCpuAllocator allocator(cfg, &history);
  auto spec = gpu_spec(perfmodel::ModelId::kWavenet);  // start 5, opt 6
  auto session = allocator.begin(2);
  int cores = 2;
  int max_delta = 0;
  while (!session.converged()) {
    auto next = allocator.step(
        session, perf.gpu_utilization(spec.model, spec.train_config, cores));
    if (!next.has_value()) {
      break;
    }
    max_delta = std::max(max_delta, std::abs(*next - cores));
    cores = *next;
  }
  // Pure +/-1 steps, except the single revert from the down-probe back
  // past N_start (a delta of 2). No multi-core jumps.
  EXPECT_LE(max_delta, 2);
}

TEST(SearchModes, OneShotStopsAfterSingleJump) {
  perfmodel::TrainPerf perf;
  core::HistoryLog history;
  AllocatorConfig cfg;
  cfg.search_mode = SearchMode::kOneShot;
  AdaptiveCpuAllocator allocator(cfg, &history);
  auto spec = gpu_spec(perfmodel::ModelId::kAlexnet);
  auto session = allocator.begin(1);  // far below the optimum of 6
  int cores = 1;
  while (!session.converged()) {
    auto next = allocator.step(
        session, perf.gpu_utilization(spec.model, spec.train_config, cores));
    if (!next.has_value()) {
      break;
    }
    cores = *next;
  }
  // probe + jump + one confirmation measurement.
  EXPECT_LE(session.steps, 3);
  EXPECT_GT(session.current, 1);
}

// ------------------------------------------------------------------ history

TEST(History, MeanCoresPerGpuAndFourGpuFraction) {
  HistoryLog history;
  EXPECT_FALSE(history.mean_cores_per_gpu().has_value());
  EXPECT_FALSE(history.four_gpu_fraction().has_value());
  history.record(HistoryRecord{0, perfmodel::ModelCategory::kCV,
                               perfmodel::ModelId::kAlexnet, 1, 1, 6});
  history.record(HistoryRecord{0, perfmodel::ModelCategory::kCV,
                               perfmodel::ModelId::kAlexnet, 1, 4, 12});
  EXPECT_DOUBLE_EQ(*history.mean_cores_per_gpu(), (6.0 + 3.0) / 2.0);
  // GPU-demand weighted: 4 of 5 GPUs belong to the 4-GPU job.
  EXPECT_DOUBLE_EQ(*history.four_gpu_fraction(), 4.0 / 5.0);
}

}  // namespace
}  // namespace coda::core
