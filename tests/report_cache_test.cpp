// Tests for the full-report serialization (report_io) and the on-disk
// content-addressed report cache: lossless round-trips, hit/miss behaviour,
// key sensitivity to config changes, and corrupt-entry recovery.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/report_cache.h"
#include "sim/report_io.h"
#include "workload/trace_gen.h"

namespace coda::sim {
namespace {

namespace fs = std::filesystem;

std::vector<workload::JobSpec> tiny_trace(uint64_t seed) {
  auto cfg = standard_week_trace(seed);
  cfg.duration_s = 4.0 * 3600.0;
  cfg.cpu_jobs = 50;
  cfg.gpu_jobs = 25;
  return workload::TraceGenerator(cfg).generate();
}

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.engine.cluster.node_count = 8;
  cfg.drain_slack_s = 86400.0;
  return cfg;
}

// CODA exercises every report field (tuning outcomes, eliminator stats,
// preemptions), so a CODA replay is the round-trip worst case.
ExperimentReport sample_report(uint64_t seed = 3) {
  return run_experiment(Policy::kCoda, tiny_trace(seed), tiny_config());
}

class TempCacheDir {
 public:
  explicit TempCacheDir(const char* name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
  }
  ~TempCacheDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

TEST(ReportSerialization, RoundTripIsLossless) {
  const auto report = sample_report();
  const std::string text = serialize_report(report);
  const auto parsed = deserialize_report(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;

  // Re-serializing the parsed report must reproduce the bytes exactly —
  // hexfloat encoding makes every double round-trip bit-for-bit.
  EXPECT_EQ(serialize_report(parsed.value()), text);

  const auto& r = parsed.value();
  EXPECT_EQ(r.scheduler, report.scheduler);
  EXPECT_EQ(r.submitted, report.submitted);
  EXPECT_EQ(r.completed, report.completed);
  EXPECT_EQ(r.events_dispatched, report.events_dispatched);
  EXPECT_EQ(r.records.size(), report.records.size());
  EXPECT_EQ(r.tuning_outcomes.size(), report.tuning_outcomes.size());
  EXPECT_EQ(r.gpu_active_series.size(), report.gpu_active_series.size());
  EXPECT_EQ(r.queue_by_tenant.size(), report.queue_by_tenant.size());
  EXPECT_DOUBLE_EQ(r.gpu_util_active, report.gpu_util_active);
  EXPECT_DOUBLE_EQ(r.frag_rate, report.frag_rate);
}

TEST(ReportSerialization, RejectsTruncatedAndGarbageInput) {
  EXPECT_FALSE(deserialize_report("").ok());
  EXPECT_FALSE(deserialize_report("not a report at all\n").ok());
  const std::string text = serialize_report(sample_report());
  EXPECT_FALSE(deserialize_report(text.substr(0, text.size() / 2)).ok());
  // A count the blob cannot back is a parse error, not a reserve() of
  // 10^14 elements (std::bad_alloc).
  for (const char* key : {"gpu_queue_times", "records", "tuning_outcomes"}) {
    const size_t at = text.find(std::string("\n") + key + " ");
    ASSERT_NE(at, std::string::npos) << key;
    const std::string claim =
        text.substr(0, at + 1) + key + " 100000000000000\n";
    EXPECT_FALSE(deserialize_report(claim).ok()) << key;
  }
}

TEST(ReportCacheKey, SensitiveToEveryInput) {
  const auto trace = tiny_trace(5);
  const auto cfg = tiny_config();
  const std::string base = experiment_cache_key(Policy::kCoda, trace, cfg);
  EXPECT_EQ(base.size(), 16u);

  // Policy change.
  EXPECT_NE(base, experiment_cache_key(Policy::kFifo, trace, cfg));

  // Any config knob change.
  auto cfg2 = cfg;
  cfg2.coda.eliminator.bw_threshold += 0.01;
  EXPECT_NE(base, experiment_cache_key(Policy::kCoda, trace, cfg2));
  auto cfg3 = cfg;
  cfg3.engine.metrics_period_s *= 2.0;
  EXPECT_NE(base, experiment_cache_key(Policy::kCoda, trace, cfg3));

  // Any trace change.
  auto trace2 = trace;
  trace2.back().submit_time += 1.0;
  EXPECT_NE(base, experiment_cache_key(Policy::kCoda, trace2, cfg));

  // Determinism: same inputs, same key.
  EXPECT_EQ(base, experiment_cache_key(Policy::kCoda, trace, cfg));
}

// Keys of a fixed trace and config, recorded when the key still hashed
// each JobSpec member by hand. It now walks fields(JobSpec), the list
// snapshots and reports use, widening each value as before, so the keys
// must not move. The appended job sets every field off its default.
TEST(ReportCacheKey, PinnedForAFixedTraceAndConfig) {
  auto trace = tiny_trace(5);
  workload::JobSpec every;
  every.id = 18446744073709551615ull;
  every.tenant = 4294967295u;
  every.kind = workload::JobKind::kGpuTraining;
  every.submit_time = 14399.5;
  every.model = perfmodel::ModelId::kWavenet;
  every.train_config = perfmodel::TrainConfig{2, 4, 48, 3.5};
  every.iterations = 1234.5;
  every.requested_cpus = 9;
  every.hints = workload::UserHints{false, true, true, true};
  every.cpu_cores = 5;
  every.cpu_work_core_s = 77.25;
  every.mem_bw_gbps = 7.5;
  every.bw_bound_fraction = 0.85;
  every.llc_mb = 9.6;
  every.user_facing = true;
  every.checkpoint_interval_s = 1800.0;
  every.checkpoint_overhead_s = 12.25;
  trace.push_back(every);
  EXPECT_EQ(experiment_cache_key(Policy::kCoda, trace, tiny_config()),
            "b68decef4430cf3a");
  EXPECT_EQ(experiment_cache_key(Policy::kFifo, {every}, ExperimentConfig{}),
            "f43794e2a12083c5");
}

TEST(ReportCache, MissThenStoreThenHit) {
  TempCacheDir dir("coda_report_cache_test_hit");
  ReportCache cache(dir.path().string());
  ASSERT_TRUE(cache.enabled());

  const auto report = sample_report();
  const std::string key = "0123456789abcdef";
  EXPECT_FALSE(cache.load(key).has_value());

  ASSERT_TRUE(cache.store(key, report).ok());
  const auto hit = cache.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(serialize_report(*hit), serialize_report(report));

  // A different key is still a miss.
  EXPECT_FALSE(cache.load("fedcba9876543210").has_value());
}

TEST(ReportCache, CorruptEntryIsAMissAndGetsDeleted) {
  TempCacheDir dir("coda_report_cache_test_corrupt");
  ReportCache cache(dir.path().string());
  const auto report = sample_report();
  const std::string key = "00000000deadbeef";
  ASSERT_TRUE(cache.store(key, report).ok());

  // Flip one payload byte: the checksum must catch it.
  const std::string path = cache.path_for(key);
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(contents.size(), 64u);
  contents[contents.size() / 2] ^= 0x1;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  EXPECT_FALSE(cache.load(key).has_value());
  // The corrupt file is removed so the next store can repopulate it.
  EXPECT_FALSE(fs::exists(path));

  // Outright garbage is likewise a silent miss.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "???" << std::endl;
  }
  EXPECT_FALSE(cache.load(key).has_value());

  // And the entry can be rebuilt.
  ASSERT_TRUE(cache.store(key, report).ok());
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST(ReportCache, StaleSchemaVersionIsAMiss) {
  TempCacheDir dir("coda_report_cache_test_stale");
  ReportCache cache(dir.path().string());
  const std::string key = "0000000000000001";
  ASSERT_TRUE(cache.store(key, sample_report()).ok());

  // Rewrite the header with a schema version from "the future".
  const std::string path = cache.path_for(key);
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto space = contents.find(' ');
  ASSERT_NE(space, std::string::npos);
  contents.replace(space + 1, 1, "9");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  EXPECT_FALSE(cache.load(key).has_value());
}

TEST(ReportCache, NoCacheEnvDisablesEverything) {
  const char* saved = std::getenv("CODA_NO_CACHE");
  const std::string saved_value = saved != nullptr ? saved : "";
  ASSERT_EQ(setenv("CODA_NO_CACHE", "1", 1), 0);

  TempCacheDir dir("coda_report_cache_test_disabled");
  ReportCache cache(dir.path().string());
  EXPECT_FALSE(cache.enabled());

  if (saved != nullptr) {
    ASSERT_EQ(setenv("CODA_NO_CACHE", saved_value.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("CODA_NO_CACHE"), 0);
  }
}

TEST(ReportCache, DefaultDirHonoursEnvOverride) {
  const char* saved = std::getenv("CODA_CACHE_DIR");
  const std::string saved_value = saved != nullptr ? saved : "";

  ASSERT_EQ(setenv("CODA_CACHE_DIR", "/tmp/coda_cache_override", 1), 0);
  EXPECT_EQ(ReportCache::default_dir(), "/tmp/coda_cache_override");
  ASSERT_EQ(unsetenv("CODA_CACHE_DIR"), 0);
  EXPECT_EQ(ReportCache::default_dir(), ".report_cache");

  if (saved != nullptr) {
    ASSERT_EQ(setenv("CODA_CACHE_DIR", saved_value.c_str(), 1), 0);
  }
}

}  // namespace
}  // namespace coda::sim
