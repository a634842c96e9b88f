// Tests for the trace generator (paper workload marginals), tenants and
// trace serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "workload/tenant.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace coda::workload {
namespace {

TraceConfig small_config(uint64_t seed = 42) {
  TraceConfig cfg;
  cfg.seed = seed;
  cfg.duration_s = 2.0 * 86400.0;
  cfg.cpu_jobs = 3000;
  cfg.gpu_jobs = 2000;
  return cfg;
}

TEST(Tenants, StandardPopulation) {
  const auto tenants = standard_tenants();
  ASSERT_EQ(tenants.size(), 20u);
  int lab = 0;
  int company = 0;
  int cpu_only = 0;
  for (const auto& t : tenants) {
    switch (t.cls) {
      case TenantClass::kResearchLab:
        ++lab;
        EXPECT_FALSE(t.preferred_models.empty());
        break;
      case TenantClass::kAiCompany:
        ++company;
        break;
      case TenantClass::kCpuOnly:
        ++cpu_only;
        EXPECT_TRUE(t.preferred_models.empty());
        break;
    }
  }
  EXPECT_EQ(lab, 5);
  EXPECT_EQ(company, 10);
  EXPECT_EQ(cpu_only, 5);
  // Users 15-19 are the CPU-only ones (Fig. 12).
  for (int i = 15; i < 20; ++i) {
    EXPECT_EQ(tenants[static_cast<size_t>(i)].cls, TenantClass::kCpuOnly);
  }
}

TEST(TraceGenerator, DeterministicForSeed) {
  const auto a = TraceGenerator(small_config(7)).generate();
  const auto b = TraceGenerator(small_config(7)).generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_DOUBLE_EQ(a[i].iterations, b[i].iterations);
  }
  const auto c = TraceGenerator(small_config(8)).generate();
  bool any_diff = false;
  for (size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
    any_diff |= a[i].submit_time != c[i].submit_time;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TraceGenerator, SortedWithConsecutiveIds) {
  const auto trace = TraceGenerator(small_config()).generate();
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].id, i + 1);
    if (i > 0) {
      EXPECT_GE(trace[i].submit_time, trace[i - 1].submit_time);
    }
    EXPECT_LT(trace[i].submit_time, small_config().duration_s);
  }
}

// The published marginals of Sec. III / VI-A re-emerge from the generator.
TEST(TraceGenerator, MarginalsMatchPaper) {
  auto cfg = small_config();
  cfg.cpu_jobs = 15000;
  cfg.gpu_jobs = 5000;
  const auto trace = TraceGenerator(cfg).generate();
  const auto s = TraceGenerator::summarize(trace);
  EXPECT_EQ(s.cpu_jobs, 15000);
  EXPECT_EQ(s.gpu_jobs, 5000);
  // Fig. 2d: 76.1% request 1-2 cores per GPU (plus a sliver of the 3-10
  // bucket whose absolute ask also lands at <= 2 per GPU on 4-GPU jobs);
  // 15.3% request > 10.
  EXPECT_NEAR(s.frac_gpu_req_1_2_cores, 0.787, 0.04);
  EXPECT_NEAR(s.frac_gpu_req_gt10_cores, 0.153, 0.03);
  // Sec. VI-F: 68.5% of training jobs run > 1 h, 39.6% > 2 h.
  EXPECT_NEAR(s.frac_gpu_runtime_gt_1h, 0.685, 0.03);
  EXPECT_NEAR(s.frac_gpu_runtime_gt_2h, 0.396, 0.03);
  // Sec. VI-E: ~0.5% of CPU jobs are bandwidth hogs.
  EXPECT_NEAR(s.frac_heavy_bw_cpu, 0.005, 0.004);
  EXPECT_NEAR(s.frac_gpu_multi_node, 0.10, 0.03);
}

TEST(TraceGenerator, UserFacingInferenceComesFromCompanies) {
  auto cfg = small_config();
  cfg.cpu_jobs = 10000;
  cfg.gpu_jobs = 0;
  const auto trace = TraceGenerator(cfg).generate();
  int company_cpu = 0;
  int company_user_facing = 0;
  for (const auto& spec : trace) {
    if (spec.user_facing) {
      // Only the AI companies (tenants 5-14) run user-facing inference.
      EXPECT_GE(spec.tenant, 5u);
      EXPECT_LT(spec.tenant, 15u);
    }
    if (spec.tenant >= 5 && spec.tenant < 15) {
      ++company_cpu;
      company_user_facing += spec.user_facing ? 1 : 0;
    }
  }
  ASSERT_GT(company_cpu, 0);
  EXPECT_NEAR(static_cast<double>(company_user_facing) / company_cpu,
              cfg.user_facing_cpu_fraction, 0.03);
  const auto s = TraceGenerator::summarize(trace);
  EXPECT_GT(s.frac_user_facing_cpu, 0.05);
}

TEST(TraceGenerator, CpuOnlyUsersNeverSubmitGpuJobs) {
  const auto trace = TraceGenerator(small_config()).generate();
  for (const auto& spec : trace) {
    if (spec.tenant >= 15) {
      EXPECT_FALSE(spec.is_gpu_job()) << spec.label();
    }
  }
}

TEST(TraceGenerator, ResearchLabDominatesGpuSubmissions) {
  const auto trace = TraceGenerator(small_config()).generate();
  int lab_gpu = 0;
  int company_gpu = 0;
  for (const auto& spec : trace) {
    if (spec.is_gpu_job()) {
      (spec.tenant < 5 ? lab_gpu : company_gpu) += 1;
    }
  }
  EXPECT_GT(lab_gpu, company_gpu);
}

TEST(TraceGenerator, DiurnalCpuArrivals) {
  auto cfg = small_config();
  cfg.cpu_jobs = 20000;
  cfg.gpu_jobs = 0;
  cfg.diurnal_amplitude = 0.8;
  const auto trace = TraceGenerator(cfg).generate();
  // Peak quarter-day (rate 1+A at sin=1, t around 6h +- 3h) vs trough
  // (around 18h): arrival counts should differ strongly.
  int peak = 0;
  int trough = 0;
  for (const auto& spec : trace) {
    const double tod = std::fmod(spec.submit_time, 86400.0);
    if (tod > 3.0 * 3600 && tod < 9.0 * 3600) {
      ++peak;
    } else if (tod > 15.0 * 3600 && tod < 21.0 * 3600) {
      ++trough;
    }
  }
  EXPECT_GT(peak, trough * 3);
}

TEST(TraceGenerator, GpuJobsCarryPositiveWork) {
  const auto trace = TraceGenerator(small_config()).generate();
  for (const auto& spec : trace) {
    if (spec.is_gpu_job()) {
      EXPECT_GE(spec.iterations, 1.0);
      EXPECT_GE(spec.requested_cpus, 1);
      EXPECT_LE(spec.requested_cpus, 24);
      const double ideal = TraceGenerator::ideal_gpu_runtime(spec);
      EXPECT_GE(ideal, 250.0);
      EXPECT_LE(ideal, 49.0 * 3600.0);
    } else {
      EXPECT_GT(spec.cpu_work_core_s, 0.0);
      EXPECT_GE(spec.cpu_cores, 1);
      EXPECT_GT(spec.mem_bw_gbps, 0.0);
    }
  }
}

TEST(TraceIo, RoundTripPreservesJobs) {
  auto cfg = small_config();
  cfg.cpu_jobs = 200;
  cfg.gpu_jobs = 200;
  const auto trace = TraceGenerator(cfg).generate();
  auto parsed = trace_from_csv(trace_to_csv(trace));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const auto& a = trace[i];
    const auto& b = (*parsed)[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.tenant, b.tenant);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_NEAR(a.submit_time, b.submit_time, 1e-3);
    if (a.is_gpu_job()) {
      EXPECT_EQ(a.model, b.model);
      EXPECT_EQ(a.train_config.nodes, b.train_config.nodes);
      EXPECT_EQ(a.train_config.gpus_per_node, b.train_config.gpus_per_node);
      EXPECT_NEAR(a.iterations, b.iterations, 0.1);
      EXPECT_EQ(a.requested_cpus, b.requested_cpus);
      EXPECT_EQ(a.hints.pipelined, b.hints.pipelined);
    } else {
      EXPECT_EQ(a.cpu_cores, b.cpu_cores);
      EXPECT_NEAR(a.cpu_work_core_s, b.cpu_work_core_s, 1e-3);
      EXPECT_NEAR(a.mem_bw_gbps, b.mem_bw_gbps, 1e-3);
    }
  }
}

TEST(TraceIo, FileRoundTrip) {
  auto cfg = small_config();
  cfg.cpu_jobs = 50;
  cfg.gpu_jobs = 50;
  const auto trace = TraceGenerator(cfg).generate();
  const std::string path = testing::TempDir() + "/coda_trace_test.csv";
  ASSERT_TRUE(save_trace(path, trace).ok());
  auto loaded = load_trace(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), trace.size());
  EXPECT_FALSE(load_trace("/nonexistent/trace.csv").ok());
}

TEST(TraceIo, RejectsCorruptHeader) {
  auto parsed = trace_from_csv("id,bogus\n1,2\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, util::ErrorCode::kParseError);
}

TEST(TraceIo, RejectsUnknownModelAndKind) {
  auto cfg = small_config();
  cfg.cpu_jobs = 0;
  cfg.gpu_jobs = 1;
  const auto trace = TraceGenerator(cfg).generate();
  std::string csv = trace_to_csv(trace);
  std::string broken = csv;
  const auto model_name =
      std::string(perfmodel::to_string(trace[0].model));
  broken.replace(broken.find(model_name), model_name.size(), "NotAModel");
  EXPECT_FALSE(trace_from_csv(broken).ok());
  std::string broken2 = csv;
  broken2.replace(broken2.find(",gpu,"), 5, ",xyz,");
  EXPECT_FALSE(trace_from_csv(broken2).ok());
}

// One hand-built job of each kind with distinctive field values, so the
// corruption tests below can string-replace without ambiguity.
JobSpec distinctive_gpu_spec() {
  JobSpec g;
  g.id = 1;
  g.tenant = 3;
  g.kind = JobKind::kGpuTraining;
  g.model = perfmodel::ModelId::kResnet50;
  g.train_config = perfmodel::TrainConfig{1, 2, 0};
  g.submit_time = 11.0;
  g.iterations = 567.0;
  g.requested_cpus = 4;
  return g;
}

JobSpec distinctive_cpu_spec() {
  JobSpec c;
  c.id = 2;
  c.tenant = 16;
  c.kind = JobKind::kCpu;
  c.submit_time = 13.0;
  c.cpu_cores = 6;
  c.cpu_work_core_s = 789.0;
  c.mem_bw_gbps = 21.0;
  return c;
}

void replace_once(std::string& text, const std::string& from,
                  const std::string& to) {
  const size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << "pattern '" << from << "' not in csv";
  text.replace(at, from.size(), to);
}

TEST(TraceIo, RejectsMalformedNumbersWithRowContext) {
  // The old atoi/strtod reader silently turned these into 0; each must now
  // fail with kParseError naming the row and column.
  const std::string good = trace_to_csv({distinctive_gpu_spec()});

  std::string bad = good;
  replace_once(bad, "567.0", "56x.0");  // iterations
  auto parsed = trace_from_csv(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, util::ErrorCode::kParseError);
  EXPECT_NE(parsed.error().message.find("iterations"), std::string::npos);
  EXPECT_NE(parsed.error().message.find("row 1"), std::string::npos);

  bad = good;
  replace_once(bad, "567.0", "");  // empty field
  EXPECT_FALSE(trace_from_csv(bad).ok());

  bad = good;
  replace_once(bad, "11.000", "-11.000");  // negative submit_time
  EXPECT_FALSE(trace_from_csv(bad).ok());

  // A submit time that is never due would abort the replay's event queue.
  // A SUBMIT row's (ignored) submit_time parses the same way.
  for (const char* never : {"inf", "nan"}) {
    bad = good;
    replace_once(bad, "11.000", never);
    parsed = trace_from_csv(bad);
    ASSERT_FALSE(parsed.ok()) << never;
    EXPECT_NE(parsed.error().message.find("submit_time"), std::string::npos)
        << parsed.error().message;
    std::string row = job_to_csv_row(distinctive_gpu_spec());
    replace_once(row, "11.000", never);
    EXPECT_FALSE(job_from_csv_row(row).ok()) << never;
  }

  bad = good;
  replace_once(bad, "567.0", "1e999999");  // out of double range
  EXPECT_FALSE(trace_from_csv(bad).ok());
}

TEST(TraceIo, RejectsSemanticallyInvalidJobs) {
  // Rows that parse as numbers but describe an unrunnable job.
  auto zero_nodes = distinctive_gpu_spec();
  zero_nodes.train_config.nodes = 0;
  auto parsed = trace_from_csv(trace_to_csv({zero_nodes}));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("nodes"), std::string::npos);

  auto zero_gpus = distinctive_gpu_spec();
  zero_gpus.train_config.gpus_per_node = 0;
  EXPECT_FALSE(trace_from_csv(trace_to_csv({zero_gpus})).ok());

  auto zero_cores = distinctive_cpu_spec();
  zero_cores.cpu_cores = 0;
  EXPECT_FALSE(trace_from_csv(trace_to_csv({zero_cores})).ok());

  auto bad_ckpt = distinctive_cpu_spec();
  bad_ckpt.checkpoint_interval_s = -600.0;
  EXPECT_FALSE(trace_from_csv(trace_to_csv({bad_ckpt})).ok());

  // A repeated id would abort the replay at the engine's duplicate-job
  // assert.
  parsed = trace_from_csv(
      trace_to_csv({distinctive_gpu_spec(), distinctive_gpu_spec()}));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("row 2"), std::string::npos)
      << parsed.error().message;
}

TEST(TraceIo, CheckpointFieldsRoundTrip) {
  auto gpu = distinctive_gpu_spec();
  gpu.checkpoint_interval_s = 3600.0;
  gpu.checkpoint_overhead_s = 42.5;
  auto cpu = distinctive_cpu_spec();  // checkpointing off by default
  auto parsed = trace_from_csv(trace_to_csv({gpu, cpu}));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_NEAR((*parsed)[0].checkpoint_interval_s, 3600.0, 1e-3);
  EXPECT_NEAR((*parsed)[0].checkpoint_overhead_s, 42.5, 1e-3);
  EXPECT_TRUE((*parsed)[0].checkpointing());
  EXPECT_DOUBLE_EQ((*parsed)[1].checkpoint_interval_s, 0.0);
  EXPECT_FALSE((*parsed)[1].checkpointing());
}

TEST(JobSpec, LabelsAndHelpers) {
  JobSpec gpu;
  gpu.id = 3;
  gpu.kind = JobKind::kGpuTraining;
  gpu.model = perfmodel::ModelId::kWavenet;
  gpu.train_config = perfmodel::TrainConfig{2, 2, 0};
  EXPECT_EQ(gpu.nodes_needed(), 2);
  EXPECT_EQ(gpu.gpus_per_node(), 2);
  EXPECT_EQ(gpu.total_gpus(), 4);
  EXPECT_NE(gpu.label().find("Wavenet"), std::string::npos);

  JobSpec cpu;
  cpu.kind = JobKind::kCpu;
  cpu.cpu_cores = 4;
  EXPECT_EQ(cpu.nodes_needed(), 1);
  EXPECT_EQ(cpu.total_gpus(), 0);
  EXPECT_NE(cpu.label().find("cpu"), std::string::npos);
}

}  // namespace
}  // namespace coda::workload
