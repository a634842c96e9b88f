// Tests for the trace generator (paper workload marginals), tenants and
// trace serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <tuple>

#include "sim/report_cache.h"
#include "util/rng.h"
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
  const perfmodel::TrainPerf perf;
  for (const auto& spec : trace) {
    if (spec.is_gpu_job()) {
      EXPECT_GE(spec.iterations, 1.0);
      EXPECT_GE(spec.requested_cpus, 1);
      EXPECT_LE(spec.requested_cpus, 24);
      const double ideal = TraceGenerator::ideal_gpu_runtime(spec, perf);
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

// ---------------------------------------------------- pinned trace bytes
//
// Journals embed trace_to_csv text and job_to_csv_row rows, and replay
// re-parses them, so both directions are pinned: the bytes written, and
// the accept/reject outcome and values read back for a list of edge rows.
// The values are compared bit for bit through fields(JobSpec).

// FNV-1a over every fields(JobSpec) value: integers, enums and bools
// widened to 64 bits, doubles by bit pattern (so -0.0 differs from 0.0).
std::string spec_digest(const JobSpec& spec) {
  sim::CacheKeyHasher h;
  std::apply([&h](const auto&... field) { (h.mix(field), ...); },
             fields(spec));
  return h.hex();
}

std::string trace_digest(const std::vector<JobSpec>& trace) {
  sim::CacheKeyHasher h;
  for (const JobSpec& spec : trace) {
    h.mix(spec_digest(spec));
  }
  return h.hex();
}

std::string text_digest(const std::string& text) {
  sim::CacheKeyHasher h;
  h.mix(text);
  return h.hex();
}

// Every field off its default, for the row pins.
JobSpec every_field_gpu_spec() {
  JobSpec g = distinctive_gpu_spec();
  g.id = 18446744073709551615ull;
  g.tenant = 4294967295u;
  g.model = perfmodel::ModelId::kWavenet;
  g.train_config = perfmodel::TrainConfig{2, 4, 48};
  g.submit_time = 86399.9995;
  g.iterations = 12345.65;
  g.requested_cpus = 9;
  g.hints = UserHints{false, true, true, true};
  g.checkpoint_interval_s = 1800.0;
  g.checkpoint_overhead_s = 12.25;
  return g;
}

JobSpec every_field_cpu_spec() {
  JobSpec c = distinctive_cpu_spec();
  c.submit_time = 0.0004;
  c.cpu_cores = 12;
  c.cpu_work_core_s = 1e6 / 3.0;
  c.mem_bw_gbps = 7.5;
  c.bw_bound_fraction = 0.85;
  c.llc_mb = 9.6;
  c.user_facing = true;
  c.checkpoint_interval_s = 600.0;
  c.checkpoint_overhead_s = 0.5;
  return c;
}

TEST(TraceIo, PinnedRowAndTraceBytes) {
  EXPECT_EQ(job_to_csv_row(distinctive_gpu_spec()),
            "1,3,gpu,11.000,Resnet50,1,2,0,567.0,4,1,0,0,0,1,0.000,0.000,"
            "0.000,0.000,0,0.000,0.000");
  EXPECT_EQ(job_to_csv_row(distinctive_cpu_spec()),
            "2,16,cpu,13.000,Alexnet,1,1,0,0.0,1,1,0,0,0,6,789.000,21.000,"
            "0.000,0.000,0,0.000,0.000");
  EXPECT_EQ(job_to_csv_row(every_field_gpu_spec()),
            "18446744073709551615,4294967295,gpu,86400.000,Wavenet,2,4,48,"
            "12345.6,9,0,1,1,1,1,0.000,0.000,0.000,0.000,0,1800.000,"
            "12.250");
  EXPECT_EQ(job_to_csv_row(every_field_cpu_spec()),
            "2,16,cpu,0.000,Alexnet,1,1,0,0.0,1,1,0,0,0,12,333333.333,"
            "7.500,0.850,9.600,1,600.000,0.500");
  EXPECT_EQ(trace_csv_header(),
            "id,tenant,kind,submit_time,model,nodes,gpus_per_node,"
            "batch_size,iterations,requested_cpus,hint_category,"
            "hint_pipelined,hint_weights,hint_prep,cpu_cores,"
            "cpu_work_core_s,mem_bw_gbps,bw_bound_fraction,llc_mb,"
            "user_facing,ckpt_interval_s,ckpt_overhead_s");

  // A 2-day standard trace and a wide-gang scale profile: the whole
  // document, every row on its own, and what parsing the document yields.
  struct Pin {
    const char* name;
    std::vector<JobSpec> trace;
    size_t csv_bytes;
    const char* csv_digest;
    const char* rows_digest;
    const char* parsed_digest;
  };
  const Pin pins[] = {
      {"standard", TraceGenerator(small_config()).generate(), 468306,
       "e36efbfc017efbc9", "e3f543acb13d0db1", "1c2d76acf3acfa98"},
      {"scale",
       TraceGenerator(scale_profile(10000, 600, 400, 3600.0)).generate(),
       91822, "eb976746c6c8407d", "60051a9a3e8db3fc", "412fcb17d721fb95"},
  };
  for (const Pin& pin : pins) {
    const std::string csv = trace_to_csv(pin.trace);
    sim::CacheKeyHasher rows;
    for (const JobSpec& spec : pin.trace) {
      rows.mix(job_to_csv_row(spec));
    }
    auto parsed = trace_from_csv(csv);
    ASSERT_TRUE(parsed.ok()) << pin.name << ": " << parsed.error().message;
    EXPECT_EQ(csv.size(), pin.csv_bytes) << pin.name;
    EXPECT_EQ(text_digest(csv), pin.csv_digest) << pin.name;
    EXPECT_EQ(rows.hex(), pin.rows_digest) << pin.name;
    EXPECT_EQ(trace_digest(*parsed), pin.parsed_digest) << pin.name;
  }
}

// Row `base` with column `column` replaced by `value`.
std::string col(const std::string& base, size_t column,
                const std::string& value) {
  size_t begin = 0;
  for (size_t k = 0; k < column; ++k) {
    begin = base.find(',', begin) + 1;
  }
  const size_t end = std::min(base.find(',', begin), base.size());
  return base.substr(0, begin) + value + base.substr(end);
}

// Edge rows with the outcome and values job_from_csv_row gives each one:
// `digest` is spec_digest of the accepted job, "" marks a refused row. A
// `narrowed` row holds an int column value outside int: trace_io used to
// cast it to int and load the job with `digest`; it now refuses the row
// as out of range. Every row must read the same as a one-row trace.
TEST(TraceIo, EdgeRowsKeepTheirOutcomeAndValues) {
  const std::string gpu = job_to_csv_row(distinctive_gpu_spec());
  const std::string cpu = job_to_csv_row(distinctive_cpu_spec());
  struct Edge {
    const char* label;
    std::string row;
    const char* digest;
    bool narrowed = false;
  };
  const std::string zeros67(67, '0');
  const Edge edges[] = {
      {"gpu", gpu, "4ac80df0446e265c"},
      {"cpu", cpu, "4d85a1df8e0fd78f"},
      {"gpu CR", gpu + "\r", "4ac80df0446e265c"},
      {"gpu CR CR", gpu + "\r\r", ""},
      {"empty", "", ""},
      {"blank", " \t", ""},
      {"21 fields", gpu.substr(0, gpu.rfind(',')), ""},
      {"23 fields", gpu + ",0", ""},
      {"70-char submit_time", col(gpu, 3, "11." + zeros67), "4ac80df0446e265c"},
      {"70-char iterations", col(gpu, 8, "567.0" + zeros67.substr(1)),
       "4ac80df0446e265c"},
      {"hexfloat submit_time", col(gpu, 3, "0x1.6p+3"), "4ac80df0446e265c"},
      {"inf submit_time", col(gpu, 3, "inf"), ""},
      {"nan submit_time", col(gpu, 3, "nan"), ""},
      {"nan iterations", col(gpu, 8, "nan"), "2580d0938200af68"},
      {"leading zeros", col(col(cpu, 14, "007"), 3, "013.0"),
       "8315ff5c9e6fd13e"},
      {"-0 id", col(gpu, 0, "-0"), "b84812365b6e7eed"},
      {"-0 submit_time", col(gpu, 3, "-0"), "a496161108234cfe"},
      {"+1 id", col(gpu, 0, "+1"), ""},
      {"space before id", " " + gpu, ""},
      {"unknown model on a cpu row", col(cpu, 4, "NotAModel"),
       "4d85a1df8e0fd78f"},
      {"empty model on a cpu row", col(cpu, 4, ""), "4d85a1df8e0fd78f"},
      {"unknown model on a gpu row", col(gpu, 4, "NotAModel"), ""},
      {"flag 2", col(gpu, 11, "2"), ""},
      // Each int column at INT_MAX, INT_MAX + 1 and 2^32 + 1.
      {"gpu id 2147483647", col(gpu, 0, "2147483647"), "f4271c023df8e059"},
      {"gpu id 2147483648", col(gpu, 0, "2147483648"), "864f249252a2d86d"},
      {"gpu id 4294967297", col(gpu, 0, "4294967297"), "ec67ac6b93f0bd3d"},
      {"cpu id 2147483647", col(cpu, 0, "2147483647"), "0a12fea0dab64d85"},
      {"cpu id 2147483648", col(cpu, 0, "2147483648"), "37ec28aa531b4719"},
      {"cpu id 4294967297", col(cpu, 0, "4294967297"), "b63082662dcd1209"},
      {"gpu tenant 2147483647", col(gpu, 1, "2147483647"), "d8aaae1133c769ef"},
      {"gpu tenant 2147483648", col(gpu, 1, "2147483648"), "0933574b6b897073"},
      {"gpu tenant 4294967297", col(gpu, 1, "4294967297"), ""},
      {"cpu tenant 2147483647", col(cpu, 1, "2147483647"), "eeb85c42fc927ffb"},
      {"cpu tenant 2147483648", col(cpu, 1, "2147483648"), "6f3a519d85dbda1f"},
      {"cpu tenant 4294967297", col(cpu, 1, "4294967297"), ""},
      {"gpu nodes 2147483647", col(gpu, 5, "2147483647"), "77c62bbdfc7b2571"},
      {"gpu nodes 2147483648", col(gpu, 5, "2147483648"), ""},
      {"gpu nodes 4294967297", col(gpu, 5, "4294967297"), "4ac80df0446e265c",
       true},
      {"cpu nodes 2147483647", col(cpu, 5, "2147483647"), "2a10d55217d9a12a"},
      {"cpu nodes 2147483648", col(cpu, 5, "2147483648"), "322f954c646e75ea",
       true},
      {"cpu nodes 4294967297", col(cpu, 5, "4294967297"), "4d85a1df8e0fd78f",
       true},
      {"gpu gpus_per_node 2147483647", col(gpu, 6, "2147483647"),
       "1e87330e75bf8906"},
      {"gpu gpus_per_node 2147483648", col(gpu, 6, "2147483648"), ""},
      {"gpu gpus_per_node 4294967297", col(gpu, 6, "4294967297"),
       "dbac9c4d1b959873", true},
      {"cpu gpus_per_node 2147483647", col(cpu, 6, "2147483647"),
       "bc08b9cbe15d838a"},
      {"cpu gpus_per_node 2147483648", col(cpu, 6, "2147483648"),
       "dc6b9cbb986f1b4a", true},
      {"cpu gpus_per_node 4294967297", col(cpu, 6, "4294967297"),
       "4d85a1df8e0fd78f", true},
      {"gpu batch_size 2147483647", col(gpu, 7, "2147483647"),
       "968308b6b176fe20"},
      {"gpu batch_size 2147483648", col(gpu, 7, "2147483648"), ""},
      {"gpu batch_size 4294967297", col(gpu, 7, "4294967297"),
       "64f29345f9f0468d", true},
      {"cpu batch_size 2147483647", col(cpu, 7, "2147483647"),
       "62cf5b6c3d42a2ab"},
      {"cpu batch_size 2147483648", col(cpu, 7, "2147483648"), ""},
      {"cpu batch_size 4294967297", col(cpu, 7, "4294967297"),
       "03f348a07cc4193e", true},
      {"gpu requested_cpus 2147483647", col(gpu, 9, "2147483647"),
       "ee93d984bb15d974"},
      {"gpu requested_cpus 2147483648", col(gpu, 9, "2147483648"), ""},
      {"gpu requested_cpus 4294967297", col(gpu, 9, "4294967297"),
       "a4218d0bba0ab279", true},
      {"cpu requested_cpus 2147483647", col(cpu, 9, "2147483647"),
       "924e9a918de4990a"},
      {"cpu requested_cpus 2147483648", col(cpu, 9, "2147483648"),
       "687b9a90cdfbb54a", true},
      {"cpu requested_cpus 4294967297", col(cpu, 9, "4294967297"),
       "4d85a1df8e0fd78f", true},
      {"gpu cpu_cores 2147483647", col(gpu, 14, "2147483647"),
       "b4c07c89e3dbf679"},
      {"gpu cpu_cores 2147483648", col(gpu, 14, "2147483648"),
       "c003e4dda075a0b9", true},
      {"gpu cpu_cores 4294967297", col(gpu, 14, "4294967297"),
       "4ac80df0446e265c", true},
      {"cpu cpu_cores 2147483647", col(cpu, 14, "2147483647"),
       "74867b751ad4168d"},
      {"cpu cpu_cores 2147483648", col(cpu, 14, "2147483648"), ""},
      {"cpu cpu_cores 4294967297", col(cpu, 14, "4294967297"),
       "04c3f421e5daf818", true},
  };
  const std::string header = trace_csv_header();
  for (const Edge& edge : edges) {
    const auto parsed = job_from_csv_row(edge.row);
    if (edge.narrowed) {
      ASSERT_FALSE(parsed.ok()) << edge.label;
      EXPECT_NE(parsed.error().message.find("is out of range"),
                std::string::npos)
          << edge.label << ": " << parsed.error().message;
    } else if (*edge.digest == '\0') {
      EXPECT_FALSE(parsed.ok()) << edge.label;
    } else {
      ASSERT_TRUE(parsed.ok()) << edge.label << ": " << parsed.error().message;
      EXPECT_EQ(spec_digest(*parsed), edge.digest) << edge.label;
    }
    const auto as_trace = trace_from_csv(header + "\n" + edge.row);
    EXPECT_EQ(as_trace.ok() && as_trace->size() == 1, parsed.ok())
        << edge.label;
    if (parsed.ok() && as_trace.ok() && as_trace->size() == 1) {
      EXPECT_EQ(spec_digest(as_trace->front()), spec_digest(*parsed))
          << edge.label;
    }
  }

  // Whole documents: blank and CRLF lines, and the header line itself.
  struct Text {
    const char* label;
    std::string text;
    bool ok;
    size_t jobs;
    const char* digest;  // trace_digest of the parsed jobs
  };
  const Text texts[] = {
      {"plain", header + "\n" + gpu + "\n" + cpu + "\n", true, 2,
       "a55e6b8a9574bcaf"},
      {"crlf", header + "\r\n" + gpu + "\r\n" + cpu + "\r\n", true, 2,
       "a55e6b8a9574bcaf"},
      {"blank lines",
       "\n \n" + header + "\n\n" + gpu + "\n \t\r\n\r\n" + cpu, true, 2,
       "a55e6b8a9574bcaf"},
      {"header only", header, true, 0, "cbf29ce484222325"},
      {"bare CR lines", header + "\n\r\n" + gpu + "\r\n\r", true, 1,
       "51ab64df1c927c2a"},
      {"empty", "", false, 0, ""},
      {"header CR CR", header + "\r\r\n" + gpu, false, 0, ""},
      {"space before header", " " + header + "\n" + gpu, false, 0, ""},
      {"row CR CR", header + "\n" + gpu + "\r\r\n", false, 0, ""},
  };
  for (const Text& t : texts) {
    const auto parsed = trace_from_csv(t.text);
    ASSERT_EQ(parsed.ok(), t.ok) << t.label;
    if (parsed.ok()) {
      EXPECT_EQ(parsed->size(), t.jobs) << t.label;
      EXPECT_EQ(trace_digest(*parsed), t.digest) << t.label;
    }
  }
}

// A seeded mutation loop over single rows and whole trace documents.
// Recorded rows are cut, spliced, bit-flipped and padded with oversized
// numbers and lines. Under the sanitizer lanes the point is that no input
// crashes or trips UB; here, that a row without '\n' reads the same on
// its own as it does as a one-row trace, and that a parsed trace
// re-serializes to a fixed point after one round.
TEST(TraceIo, SeededMutationsOfRowsAndTracesParseSafely) {
  auto cfg = small_config(3);
  cfg.cpu_jobs = 6;
  cfg.gpu_jobs = 6;
  std::vector<std::string> rows;
  for (const JobSpec& job : TraceGenerator(cfg).generate()) {
    rows.push_back(job_to_csv_row(job));
  }
  for (const JobSpec& job : {distinctive_gpu_spec(), every_field_gpu_spec(),
                             every_field_cpu_spec()}) {
    rows.push_back(job_to_csv_row(job));
  }
  const std::string header = trace_csv_header();
  int accepted = 0;
  int refused = 0;
  int documents = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    const auto below = [&rng](size_t n) {  // uniform in [0, n]
      return static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(n)));
    };
    const auto pick = [&] { return rows[below(rows.size() - 1)]; };
    const auto mutate = [&](std::string s) {
      switch (rng.uniform_int(0, 4)) {
        case 0:  // cut
          s.resize(below(s.size()));
          break;
        case 1: {  // splice with another recording
          const std::string other = pick();
          s = s.substr(0, below(s.size())) + other.substr(below(other.size()));
          break;
        }
        case 2:  // bit flips
          for (int64_t k = rng.uniform_int(1, 4); k > 0 && !s.empty(); --k) {
            s[below(s.size() - 1)] ^=
                static_cast<char>(1 << rng.uniform_int(0, 7));
          }
          break;
        case 3:  // an oversized number
          s.insert(below(s.size()),
                   std::string(static_cast<size_t>(rng.uniform_int(20, 400)),
                               rng.bernoulli(0.5) ? '9' : '0'));
          break;
        default:  // an oversized line
          s += std::string(4096 + below(4096), s.empty() ? ',' : s.back());
          break;
      }
      return s;
    };

    for (int i = 0; i < 1000; ++i) {
      std::string row = pick();
      for (int64_t k = rng.uniform_int(0, 2); k > 0; --k) {
        row = mutate(std::move(row));
      }
      const auto alone = job_from_csv_row(row);
      if (row.find('\n') != std::string::npos) {
        EXPECT_FALSE(alone.ok());
      } else {
        const auto as_trace = trace_from_csv(header + "\n" + row);
        ASSERT_EQ(alone.ok(), as_trace.ok() && as_trace->size() == 1) << row;
        if (alone.ok()) {
          EXPECT_EQ(spec_digest(*alone), spec_digest(as_trace->front()))
              << row;
        }
      }
      (alone.ok() ? accepted : refused) += 1;

      std::string text = rng.bernoulli(0.1) ? mutate(header) : header;
      for (int64_t k = rng.uniform_int(0, 4); k > 0; --k) {
        text += (rng.bernoulli(0.2) ? "\r\n" : "\n") +
                (rng.bernoulli(0.3) ? mutate(pick()) : pick());
      }
      if (rng.bernoulli(0.3)) {
        text = mutate(std::move(text));
      }
      const auto trace = trace_from_csv(text);
      if (!trace.ok()) {
        EXPECT_EQ(trace.error().code, util::ErrorCode::kParseError);
        continue;
      }
      const std::string once = trace_to_csv(*trace);
      const auto again = trace_from_csv(once);
      ASSERT_TRUE(again.ok()) << once << again.error().message;
      EXPECT_EQ(trace_to_csv(*again), once);
      ++documents;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
  EXPECT_GT(documents, 0);
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
