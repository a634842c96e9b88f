// Paper-fact tests for the DNN performance model: every qualitative claim of
// Sec. IV (Figs. 3, 5, 6 and the multi-node findings) must re-emerge from
// the calibrated model.
#include <gtest/gtest.h>

#include <map>

#include "csv_read.h"
#include "perfmodel/characterization.h"
#include "perfmodel/dnn_model.h"
#include "perfmodel/train_perf.h"
#include "workload/heat.h"

namespace coda::perfmodel {
namespace {

class PerModel : public testing::TestWithParam<ModelId> {
 protected:
  TrainPerf perf_;
};

INSTANTIATE_TEST_SUITE_P(AllModels, PerModel, testing::ValuesIn(kAllModels),
                         [](const testing::TestParamInfo<ModelId>& info) {
                           return std::string(to_string(info.param));
                         });

// Fig. 3: training speed and GPU utilization rise with cores, then plateau.
TEST_P(PerModel, UtilizationRisesThenPlateaus) {
  const ModelId m = GetParam();
  const auto cfg = config_1n1g();
  const int opt = perf_.optimal_cores(m, cfg);
  for (int c = 1; c < opt; ++c) {
    EXPECT_LT(perf_.gpu_utilization(m, cfg, c),
              perf_.gpu_utilization(m, cfg, c + 1))
        << "util must strictly rise below the optimum, c=" << c;
  }
  // Past the optimum it never improves meaningfully (Fig. 3: flat with a
  // slight drop).
  const double at_opt = perf_.gpu_utilization(m, cfg, opt);
  for (int c = opt; c <= 20; ++c) {
    EXPECT_LE(perf_.gpu_utilization(m, cfg, c), at_opt * 1.001);
  }
}

// Fig. 3 / Sec. V-B: utilization and training speed move together and peak
// at the same core count.
TEST_P(PerModel, UtilizationTracksThroughput) {
  const ModelId m = GetParam();
  const auto cfg = config_1n1g();
  for (int c = 1; c < 16; ++c) {
    const double du = perf_.gpu_utilization(m, cfg, c + 1) -
                      perf_.gpu_utilization(m, cfg, c);
    const double dt =
        perf_.throughput(m, cfg, c + 1) - perf_.throughput(m, cfg, c);
    if (dt > 1e-9) {
      EXPECT_GE(du, 0.0) << "throughput rose but utilization fell at " << c;
    }
  }
}

// Fig. 3: "most of the models do not gain the best performance with the
// 2-CPU configuration except Transformer with 1N1G".
TEST(PaperFacts, OnlyTransformerIsOptimalAtTwoCores1N1G) {
  TrainPerf perf;
  for (ModelId m : kAllModels) {
    const int opt = perf.optimal_cores(m, config_1n1g());
    if (m == ModelId::kTransformer || m == ModelId::kInceptionV3) {
      // InceptionV3 is the deepest CV net and also saturates at 2; the
      // paper's wording highlights Transformer.
      EXPECT_LE(opt, 2) << to_string(m);
    } else {
      EXPECT_GT(opt, 2) << to_string(m);
    }
  }
}

// Fig. 5 calibration targets (1N1G, default batch).
TEST(PaperFacts, OptimalCores1N1GMatchCalibration) {
  const std::map<ModelId, int> expected = {
      {ModelId::kAlexnet, 6},     {ModelId::kVgg16, 3},
      {ModelId::kInceptionV3, 2}, {ModelId::kResnet50, 3},
      {ModelId::kBiAttFlow, 5},   {ModelId::kTransformer, 2},
      {ModelId::kWavenet, 6},     {ModelId::kDeepSpeech, 4},
  };
  TrainPerf perf;
  for (const auto& [m, cores] : expected) {
    EXPECT_EQ(perf.optimal_cores(m, config_1n1g()), cores) << to_string(m);
  }
}

// Sec. IV-B1: CV demand is anti-correlated with model complexity — the
// simpler the network, the more CPUs it needs.
TEST(PaperFacts, SimplerCvModelsNeedMoreCores) {
  TrainPerf perf;
  const int alexnet = perf.optimal_cores(ModelId::kAlexnet, config_1n1g());
  const int vgg = perf.optimal_cores(ModelId::kVgg16, config_1n1g());
  const int inception =
      perf.optimal_cores(ModelId::kInceptionV3, config_1n1g());
  EXPECT_GT(alexnet, vgg);
  EXPECT_GE(vgg, inception);
}

// Sec. IV-B1: Wavenet re-cuts audio each iteration and needs more cores
// than DeepSpeech.
TEST(PaperFacts, WavenetNeedsMoreCoresThanDeepSpeech) {
  TrainPerf perf;
  EXPECT_GT(perf.optimal_cores(ModelId::kWavenet, config_1n1g()),
            perf.optimal_cores(ModelId::kDeepSpeech, config_1n1g()));
}

// Fig. 5: "all models except Alexnet have the same CPU demands in the
// default BS configuration and the maximum BS configuration".
TEST_P(PerModel, BatchSizeInvarianceExceptAlexnet) {
  const ModelId m = GetParam();
  TrainPerf perf;
  const int at_default = perf.optimal_cores(m, config_1n1g());
  const int at_max =
      perf.optimal_cores(m, config_1n1g(model_params(m).max_batch));
  if (m == ModelId::kAlexnet) {
    EXPECT_GT(at_max, at_default);
  } else {
    EXPECT_EQ(at_max, at_default);
  }
}

// Sec. IV-B2: on one node the demand grows with the GPU count, with a
// model-specific slope.
TEST_P(PerModel, MultiGpuDemandGrows) {
  const ModelId m = GetParam();
  TrainPerf perf;
  const int g1 = perf.optimal_cores(m, config_1n1g());
  const int g2 = perf.optimal_cores(m, TrainConfig{1, 2, 0});
  const int g4 = perf.optimal_cores(m, config_1n4g());
  EXPECT_GE(g2, g1);
  EXPECT_GT(g4, g2);
  EXPECT_LE(g4, 14) << "1N4G optima stay within Fig. 14's adjustment range";
}

// Sec. IV-B2: multi-node runs need no more than two cores...
TEST_P(PerModel, MultiNodeDemandAtMostTwoCores) {
  TrainPerf perf;
  EXPECT_LE(perf.optimal_cores(GetParam(), config_2n4g()), 2);
}

// ...and lose 25-30% throughput versus the single-node 4-GPU run.
TEST_P(PerModel, MultiNodeDegradation25To30Percent) {
  const ModelId m = GetParam();
  TrainPerf perf;
  const auto c14 = config_1n4g();
  const auto c24 = config_2n4g();
  const double t14 =
      perf.throughput(m, c14, perf.optimal_cores(m, c14));
  const double t24 =
      perf.throughput(m, c24, perf.optimal_cores(m, c24));
  const double degradation = 1.0 - t24 / t14;
  EXPECT_GE(degradation, 0.22) << to_string(m);
  EXPECT_LE(degradation, 0.31) << to_string(m);
}

// A slower interconnect exposes more communication time.
TEST(PaperFacts, SlowerNetworkDegradesMultiNodeMore) {
  TrainPerf perf;
  TrainConfig fast = config_2n4g();
  TrainConfig slow = config_2n4g();
  slow.net_gbps = fast.net_gbps / 2.0;
  EXPECT_LT(perf.iter_time(ModelId::kResnet50, fast, 2),
            perf.iter_time(ModelId::kResnet50, slow, 2));
}

// Fig. 6: CV bandwidth demand anti-correlated with complexity; NLP tiny.
TEST(PaperFacts, BandwidthOrderingMatchesFig6) {
  TrainPerf perf;
  const auto cfg = config_1n1g();
  const auto bw = [&](ModelId m) {
    return perf.mem_bw_demand_gbps(m, cfg, perf.optimal_cores(m, cfg));
  };
  EXPECT_GT(bw(ModelId::kAlexnet), bw(ModelId::kVgg16));
  EXPECT_GT(bw(ModelId::kVgg16), bw(ModelId::kInceptionV3));
  // NLP models are the smallest consumers.
  for (ModelId m : {ModelId::kAlexnet, ModelId::kVgg16,
                    ModelId::kInceptionV3, ModelId::kResnet50,
                    ModelId::kWavenet, ModelId::kDeepSpeech}) {
    EXPECT_GT(bw(m), bw(ModelId::kTransformer));
    EXPECT_GT(bw(m), bw(ModelId::kBiAttFlow));
  }
  // Wavenet > DeepSpeech (audio re-cut).
  EXPECT_GT(bw(ModelId::kWavenet), bw(ModelId::kDeepSpeech));
}

// Fig. 6: Wavenet's bandwidth grows with batch size, DeepSpeech's does not.
TEST(PaperFacts, BatchSizeBandwidthScaling) {
  TrainPerf perf;
  const auto bw = [&](ModelId m, int bs) {
    const auto cfg = config_1n1g(bs);
    return perf.mem_bw_demand_gbps(m, cfg, perf.optimal_cores(m, cfg));
  };
  EXPECT_GT(bw(ModelId::kWavenet, model_params(ModelId::kWavenet).max_batch),
            bw(ModelId::kWavenet, 0) * 1.2);
  EXPECT_NEAR(
      bw(ModelId::kDeepSpeech, model_params(ModelId::kDeepSpeech).max_batch),
      bw(ModelId::kDeepSpeech, 0), 0.3);
}

// Fig. 6: multi-GPU bandwidth demand grows linearly with the GPU count.
TEST_P(PerModel, BandwidthLinearInGpuCount) {
  const ModelId m = GetParam();
  TrainPerf perf;
  const auto c1 = config_1n1g();
  const auto c4 = config_1n4g();
  const double b1 = perf.mem_bw_demand_gbps(m, c1, perf.optimal_cores(m, c1));
  const double b4 = perf.mem_bw_demand_gbps(m, c4, perf.optimal_cores(m, c4));
  EXPECT_NEAR(b4 / b1, 4.0, 0.15);
}

// A core-starved job moves less data per second.
TEST_P(PerModel, StarvedJobDemandsLessBandwidth) {
  const ModelId m = GetParam();
  TrainPerf perf;
  const auto cfg = config_1n4g();
  const int opt = perf.optimal_cores(m, cfg);
  if (opt > 1) {
    EXPECT_LT(perf.mem_bw_demand_gbps(m, cfg, 1),
              perf.mem_bw_demand_gbps(m, cfg, opt));
  }
}

// Sec. IV-C3: only Alexnet and Resnet50 have a large PCIe appetite.
TEST(PaperFacts, PcieDemandsMatchSec4C3) {
  TrainPerf perf;
  const auto cfg = config_1n1g();
  const auto pcie = [&](ModelId m) {
    return perf.pcie_demand_gbps(m, cfg, perf.optimal_cores(m, cfg));
  };
  EXPECT_GE(pcie(ModelId::kAlexnet), 6.0);
  EXPECT_GE(pcie(ModelId::kResnet50), 6.0);
  // NLP and speech models consume less than 1 GB/s.
  for (ModelId m : {ModelId::kBiAttFlow, ModelId::kTransformer,
                    ModelId::kWavenet, ModelId::kDeepSpeech}) {
    EXPECT_LT(pcie(m), 1.0) << to_string(m);
  }
  // No model consumes more than half of PCIe 3.0 x16 (16 GB/s).
  for (ModelId m : kAllModels) {
    EXPECT_LE(pcie(m), 8.0) << to_string(m);
  }
}

// N_start defaults of Sec. V-B1.
TEST(PaperFacts, StartCoreDefaults) {
  EXPECT_EQ(default_start_cores(ModelCategory::kCV), 3);
  EXPECT_EQ(default_start_cores(ModelCategory::kNLP), 5);
  EXPECT_EQ(default_start_cores(ModelCategory::kSpeech), 5);
}

// Table I sanity: names, categories and parameter plausibility.
TEST(ModelZoo, TableIInventory) {
  EXPECT_EQ(kModelCount, 8);
  EXPECT_STREQ(to_string(ModelId::kBiAttFlow), "BAT");
  EXPECT_EQ(model_params(ModelId::kAlexnet).category, ModelCategory::kCV);
  EXPECT_EQ(model_params(ModelId::kTransformer).category,
            ModelCategory::kNLP);
  EXPECT_EQ(model_params(ModelId::kDeepSpeech).category,
            ModelCategory::kSpeech);
  for (ModelId m : kAllModels) {
    const auto& p = model_params(m);
    EXPECT_EQ(p.id, m);
    EXPECT_GT(p.gpu_time_s, 0.0);
    EXPECT_GT(p.prep_work_core_s, 0.0);
    EXPECT_GT(p.util_ceiling, 0.4);
    EXPECT_LE(p.util_ceiling, 1.0);
    EXPECT_GT(p.max_batch, p.default_batch);
    EXPECT_GE(p.multi_node_slowdown, 1.0);
    EXPECT_GT(p.llc_sensitivity, 0.0);
    EXPECT_LT(p.llc_sensitivity, 0.1);  // "not sensitive to LLC contention"
  }
}

TEST(TrainConfig, NamesAndHelpers) {
  EXPECT_EQ(config_1n1g().name(), "1N1G");
  EXPECT_EQ(config_1n4g().name(), "1N4G");
  EXPECT_EQ(config_2n4g().name(), "2N4G");
  EXPECT_EQ(config_2n4g().total_gpus(), 4);
}

TEST(TrainPerf, SamplesPerSecondScalesWithGpusAndBatch) {
  TrainPerf perf;
  const ModelId m = ModelId::kVgg16;
  const int opt1 = perf.optimal_cores(m, config_1n1g());
  const int opt4 = perf.optimal_cores(m, config_1n4g());
  const double s1 = perf.samples_per_second(m, config_1n1g(), opt1);
  const double s4 = perf.samples_per_second(m, config_1n4g(), opt4);
  EXPECT_NEAR(s4 / s1, 4.0, 0.2);
}

TEST(Characterization, CoreSweepCoversEveryModelAndConfig) {
  const auto sweep = core_sweep(12);
  EXPECT_EQ(sweep.size(), 8u * 2u * 12u);
  for (const auto& p : sweep) {
    EXPECT_GE(p.gpu_util, 0.0);
    EXPECT_LE(p.gpu_util, 1.0);
    EXPECT_GT(p.samples_per_s, 0.0);
  }
  // The sweep reproduces the per-model optimum.
  TrainPerf perf;
  for (const auto& p : sweep) {
    if (p.config == "1N1G" &&
        p.cores == perf.optimal_cores(p.model, config_1n1g())) {
      EXPECT_NEAR(p.gpu_util,
                  perf.gpu_utilization(p.model, config_1n1g(), p.cores),
                  1e-12);
    }
  }
}

TEST(Characterization, ConfigSummariesMatchDirectQueries) {
  TrainPerf perf;
  const auto summaries = config_summaries();
  EXPECT_EQ(summaries.size(), 8u * 4u * 2u);
  for (const auto& s : summaries) {
    if (s.config == "1N4G" && !s.max_batch) {
      EXPECT_EQ(s.optimal_cores,
                perf.optimal_cores(s.model, config_1n4g()));
    }
  }
}

TEST(Characterization, ContentionSweepMonotoneInPressure) {
  const auto sweep = contention_sweep({0, 8, 16, 24, 28});
  std::map<ModelId, double> last;
  for (const auto& p : sweep) {
    EXPECT_LE(p.normalized_perf, 1.0 + 1e-9);
    if (last.count(p.model) > 0) {
      EXPECT_LE(p.normalized_perf, last[p.model] + 1e-9)
          << to_string(p.model);
    }
    last[p.model] = p.normalized_perf;
  }
}

// Pins the HEAT constants inlined in characterization.cpp to the canonical
// workload::HeatParams defaults (perfmodel cannot include workload).
TEST(Characterization, HeatConstantsStayInSync) {
  const workload::HeatParams params;
  EXPECT_DOUBLE_EQ(params.bw_per_thread_gbps, 8.0);
  EXPECT_DOUBLE_EQ(params.llc_mb_per_thread, 1.2);
  EXPECT_DOUBLE_EQ(params.bw_bound_fraction, 0.9);
}

TEST(Characterization, SavesCsvFiles) {
  const std::string dir = testing::TempDir();
  ASSERT_TRUE(save_characterization_csv(dir).ok());
  for (const char* name :
       {"fig3_cores.csv", "fig5_fig6_summary.csv", "fig7_contention.csv"}) {
    auto doc = test::read_csv_file(dir + "/" + name);
    ASSERT_TRUE(doc.ok()) << name;
    EXPECT_GT(doc->rows.size(), 8u) << name;
  }
  EXPECT_FALSE(save_characterization_csv("/nonexistent_dir_xyz").ok());
}

TEST(TrainPerf, RepeatedDemandProbesReturnIdenticalBits) {
  // mem_bw/pcie demand derive from the cached per-(model, config) optimum;
  // repeated calls must be bit-identical (the scheduler compares demands
  // against thresholds, so even 1-ulp jitter would flip decisions) and must
  // not rebuild the invariants each time.
  TrainPerf perf;
  const TrainConfig configs[] = {config_1n1g(), config_1n4g(), config_2n4g()};
  for (ModelId id : kAllModels) {
    for (const TrainConfig& cfg : configs) {
      for (int cores : {1, 4, 16, 28}) {
        const double mem = perf.mem_bw_demand_gbps(id, cfg, cores);
        const double pcie = perf.pcie_demand_gbps(id, cfg, cores);
        for (int i = 0; i < 3; ++i) {
          ASSERT_EQ(perf.mem_bw_demand_gbps(id, cfg, cores), mem)
              << to_string(id) << " " << cfg.name() << " cores=" << cores;
          ASSERT_EQ(perf.pcie_demand_gbps(id, cfg, cores), pcie)
              << to_string(id) << " " << cfg.name() << " cores=" << cores;
        }
      }
    }
  }
  const uint64_t builds = perf.cache_stats().invariant_builds;
  EXPECT_LE(builds, static_cast<uint64_t>(kModelCount) * 3u);
  perf.mem_bw_demand_gbps(ModelId::kAlexnet, config_1n1g(), 8);
  EXPECT_EQ(perf.cache_stats().invariant_builds, builds);
}

TEST(TrainPerf, ContentionInflatesIterTime) {
  TrainPerf perf;
  ContentionFactors hot;
  hot.prep_inflation = 2.0;
  const ModelId m = ModelId::kBiAttFlow;
  const auto cfg = config_1n1g();
  const int opt = perf.optimal_cores(m, cfg);
  EXPECT_GT(perf.iter_time(m, cfg, opt, hot), perf.iter_time(m, cfg, opt));
  EXPECT_LT(perf.gpu_utilization(m, cfg, opt, hot),
            perf.gpu_utilization(m, cfg, opt));
}

}  // namespace
}  // namespace coda::perfmodel
