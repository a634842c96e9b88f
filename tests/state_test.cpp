// Tests for the snapshot subsystem (src/state): serde primitives, the
// snapshot container, durable file plumbing, and the headline property —
// a session snapshotted at ANY event boundary and restored must finish
// with the exact report bytes of the session that was never interrupted.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "perfmodel/contention.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/report_io.h"
#include "state/serde.h"
#include "state/snapshot.h"
#include "util/rng.h"
#include "util/timeseries.h"
#include "workload/trace_gen.h"

namespace coda::state {
namespace {

// ----------------------------------------------------------------- serde

TEST(Serde, WriterReaderRoundTripsEveryValueKind) {
  Writer w;
  const double ugly = -0x1.91eb851eb851fp+1;  // no finite decimal expansion
  w.line("mixed", ugly, uint64_t{0xFFFFFFFFFFFFFFF0ull}, int64_t{-42}, true,
         std::string_view("token"));
  w.line("blob_bytes", size_t{5});
  w.raw("ab\ncd");
  w.line("tail", 0.0);

  Reader r(w.text());
  ASSERT_TRUE(r.expect("mixed"));
  const double back = r.f64();
  EXPECT_EQ(std::memcmp(&back, &ugly, sizeof(double)), 0);  // bit-exact
  EXPECT_EQ(r.u64(), 0xFFFFFFFFFFFFFFF0ull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.token(), "token");
  ASSERT_TRUE(r.expect("blob_bytes"));
  const uint64_t n = r.u64();
  EXPECT_EQ(r.bytes(n), "ab\ncd");  // raw blob may contain newlines
  ASSERT_TRUE(r.expect("tail"));
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_TRUE(r.ok());
}

TEST(Serde, ReaderPoisonsOnMismatchAndStaysPoisoned) {
  Writer w;
  w.line("alpha", 1.0);
  w.line("beta", 2.0);
  Reader r(w.text());
  EXPECT_FALSE(r.expect("gamma"));  // wrong key
  EXPECT_FALSE(r.ok());
  // Every later getter is a zero-value no-op; loops guarded on ok() stop.
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.expect("beta"));
  EXPECT_FALSE(r.status().ok());
}

TEST(Serde, ReaderPoisonsOnMissingTokenAndTruncatedBlob) {
  {
    Reader r("solo 1\n");
    ASSERT_TRUE(r.expect("solo"));
    EXPECT_EQ(r.u64(), 1u);
    EXPECT_EQ(r.u64(), 0u);  // no second token on the line
    EXPECT_FALSE(r.ok());
  }
  {
    Reader r("blob 10\nshort\n");
    ASSERT_TRUE(r.expect("blob"));
    const uint64_t n = r.u64();
    EXPECT_EQ(n, 10u);
    r.bytes(n);  // only 6 bytes remain
    EXPECT_FALSE(r.ok());
  }
  {
    Reader r("num abc\n");
    ASSERT_TRUE(r.expect("num"));
    r.f64();
    EXPECT_FALSE(r.ok());
  }
  {
    // A valid i64 that no int holds must poison, not wrap to 4.
    Reader r("num 4294967300\n");
    ASSERT_TRUE(r.expect("num"));
    EXPECT_EQ(r.i32(), 0);
    EXPECT_FALSE(r.ok());
  }
}

// ------------------------------------------------------------- container

TEST(Snapshot, ParseRejectsCorruptContainers) {
  EXPECT_FALSE(parse_snapshot("").ok());
  EXPECT_FALSE(parse_snapshot("NOT_A_SNAPSHOT 1\n").ok());
  // Right magic, wrong version. v2 carried four parallel-flush counters in
  // its engine stats line; v3 dropped them, so v2 files are refused.
  EXPECT_FALSE(parse_snapshot("CODA_SNAPSHOT 99\n").ok());
  auto v2 = parse_snapshot("CODA_SNAPSHOT 2\n");
  ASSERT_FALSE(v2.ok());
  EXPECT_NE(v2.error().message.find("unsupported snapshot version"),
            std::string::npos)
      << v2.error().message;
  // Truncated embedded session blob.
  EXPECT_FALSE(parse_snapshot("CODA_SNAPSHOT 3\n"
                              "meta 1 0x1p+0 0 0 0\n"
                              "session_bytes 100\nshort")
                   .ok());
}

TEST(Snapshot, FindLatestSnapshotPicksMaxSequence) {
  const std::string stem =
      "/tmp/coda_state_test_latest_" +
      std::to_string(static_cast<long long>(::getpid())) + ".journal.SNAP.";
  EXPECT_EQ(find_latest_snapshot(stem).error().code,
            util::ErrorCode::kNotFound);
  ASSERT_TRUE(write_file_durable(stem + "2", "two").ok());
  ASSERT_TRUE(write_file_durable(stem + "10", "ten").ok());
  ASSERT_TRUE(write_file_durable(stem + "9", "nine").ok());
  // Non-numeric suffixes are not snapshots and must be ignored, and so
  // must one past u64 (2^64 + 11 would wrap to 11 and win).
  ASSERT_TRUE(write_file_durable(stem + "10.tmp", "junk").ok());
  ASSERT_TRUE(write_file_durable(stem + "18446744073709551627", "wrap").ok());
  auto latest = find_latest_snapshot(stem);
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  EXPECT_EQ(*latest, stem + "10");  // numeric, not lexicographic, order
  for (const char* suffix : {"2", "10", "9", "10.tmp",
                             "18446744073709551627"}) {
    std::remove((stem + suffix).c_str());
  }
}

// "No snapshot" lets a restore fall back to the journal alone, so a
// directory that cannot be read must be a different error.
TEST(Snapshot, FindLatestSnapshotReportsAnUnreadableDirectory) {
  const std::string file =
      "/tmp/coda_state_test_notadir_" +
      std::to_string(static_cast<long long>(::getpid()));
  ASSERT_TRUE(write_file_durable(file, "not a directory").ok());
  auto latest = find_latest_snapshot(file + "/journal.SNAP.");
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.error().code, util::ErrorCode::kIoError)
      << latest.error().message;
  std::remove(file.c_str());
}

TEST(Snapshot, WriteFileDurableReplacesAtomically) {
  const std::string path =
      "/tmp/coda_state_test_durable_" +
      std::to_string(static_cast<long long>(::getpid()));
  ASSERT_TRUE(write_file_durable(path, "first contents").ok());
  ASSERT_TRUE(write_file_durable(path, "second").ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "second");
  // No temp sibling left behind.
  struct stat st {};
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0);
  std::remove(path.c_str());
}

// ------------------------------------------------------ sizeof tripwires
//
// save_state/load_state enumerate these structs field by field. Growing
// one without teaching the serializer silently drops the new field from
// snapshots — restored sessions would diverge. If a size below changes,
// update sim/engine_state.cpp (and the scheduler/state serializers) AND
// this expectation in the same commit.

TEST(Snapshot, SerializedStructSizeTripwires) {
  EXPECT_EQ(sizeof(sim::JobRecord), 224u);
  EXPECT_EQ(sizeof(sim::ClusterEngine::EngineStats), 40u);
  EXPECT_EQ(sizeof(perfmodel::ResourceFootprint), 80u);
  EXPECT_EQ(sizeof(perfmodel::ContentionFactors), 16u);
  EXPECT_EQ(sizeof(perfmodel::JobContention), 40u);
  EXPECT_EQ(sizeof(perfmodel::NodeContentionReport), 56u);
  EXPECT_EQ(sizeof(util::TimePoint), 16u);
  EXPECT_EQ(sizeof(SnapshotMeta), 40u);
}

// ----------------------------------------- snapshot/restore determinism

// Snapshot `session` at its current clock and rebuild it from the blob.
util::Result<RestoredSession> snapshot_and_restore(
    const std::vector<workload::JobSpec>& trace, const sim::Session& session) {
  SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = session.engine->sim().now();
  meta.dispatched = session.engine->sim().dispatched();
  auto blob = capture_snapshot(meta, "offline", *session.engine,
                               *session.scheduler.scheduler);
  if (!blob.ok()) {
    return blob.error();
  }
  auto parsed = parse_snapshot(*blob);
  if (!parsed.ok()) {
    return parsed.error();
  }
  EXPECT_EQ(parsed->session_text, "offline");
  return restore_session(*parsed, session.policy, session.config, trace);
}

std::string report_of(sim::Session& session) {
  return sim::serialize_report(session.finish());
}

TEST(Snapshot, RestoreAtRandomCutsReproducesReportBytes) {
  // The subsystem's headline property, randomized: pick a session with
  // every replay-relevant mechanism enabled at random (retry backoff,
  // Poisson node outages, utilization noise, any policy), cut it at a
  // random virtual time, snapshot/restore, and finish both twins. The
  // serialized reports — every counter, time series and per-job record —
  // must match byte for byte.
  util::Rng rng(0xC0DA5EED);
  for (int iter = 0; iter < 6; ++iter) {
    auto trace_cfg = sim::standard_week_trace(1000 + iter);
    trace_cfg.duration_s = 2.0 * 3600.0;
    trace_cfg.cpu_jobs = static_cast<int>(rng.uniform_int(20, 50));
    trace_cfg.gpu_jobs = static_cast<int>(rng.uniform_int(10, 30));
    const auto trace = workload::TraceGenerator(trace_cfg).generate();

    const auto policy = static_cast<sim::Policy>(rng.uniform_int(0, 2));
    sim::ExperimentConfig config;
    config.horizon_s = trace_cfg.duration_s;
    config.drain_slack_s = 86400.0;
    config.engine.cluster.node_count = static_cast<int>(rng.uniform_int(4, 10));
    config.engine.util_noise_stddev = rng.bernoulli(0.5) ? 0.05 : 0.0;
    config.engine.noise_seed = rng.next_u64();
    config.engine.record_events = rng.bernoulli(0.5);
    config.retry.enabled = rng.bernoulli(0.7);
    config.retry.backoff_base_s = 30.0;
    config.retry.max_retries = 3;
    if (rng.bernoulli(0.7)) {
      config.failures.node_mtbf_s = 1800.0;
      config.failures.outage_s = 300.0;
      config.failures.seed = rng.next_u64();
    }

    // Twin A runs straight through; twin B is cut mid-flight.
    sim::Session uninterrupted = sim::Session::start(policy, trace, config);
    sim::Session cut = sim::Session::start(policy, trace, config);
    const double cut_vt = rng.uniform(0.0, config.horizon_s);
    cut.engine->run_until(cut_vt);

    auto restored = snapshot_and_restore(trace, cut);
    ASSERT_TRUE(restored.ok())
        << "iter " << iter << " cut_vt " << cut_vt << ": "
        << restored.error().message;
    EXPECT_EQ(restored->engine->sim().now(), cut.engine->sim().now());
    EXPECT_EQ(restored->engine->sim().dispatched(),
              cut.engine->sim().dispatched());

    EXPECT_EQ(report_of(*restored), report_of(uninterrupted))
        << "iter " << iter << " policy " << sim::to_string(policy)
        << " cut_vt " << cut_vt;
  }
}

TEST(Snapshot, RestoreDuringDrainReproducesReportBytes) {
  // Cut *past* the horizon, mid-drain: retries, backoff timers and finish
  // events are in flight with no new arrivals. The restored twin must
  // still drain to identical bytes.
  auto trace_cfg = sim::standard_week_trace(77);
  trace_cfg.duration_s = 2.0 * 3600.0;
  trace_cfg.cpu_jobs = 30;
  trace_cfg.gpu_jobs = 15;
  const auto trace = workload::TraceGenerator(trace_cfg).generate();
  sim::ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.drain_slack_s = 86400.0;
  config.engine.cluster.node_count = 6;
  config.retry.enabled = true;
  config.failures.node_mtbf_s = 1800.0;
  config.failures.outage_s = 300.0;

  sim::Session uninterrupted =
      sim::Session::start(sim::Policy::kCoda, trace, config);
  sim::Session cut = sim::Session::start(sim::Policy::kCoda, trace, config);
  // Both twins run the same 600s past the horizon (periodics keep ticking
  // under run_until; only drain() stops with the last job) — the cut twin
  // is then snapshotted inside that window.
  uninterrupted.engine->run_until(config.horizon_s + 600.0);
  cut.engine->run_until(config.horizon_s + 600.0);

  auto restored = snapshot_and_restore(trace, cut);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_EQ(report_of(*restored), report_of(uninterrupted));
}

TEST(Snapshot, RestoreThenLiveInjectionMatchesDirectInjection) {
  // The service's restore path injects the journal tail into a restored
  // engine. Equivalent offline: injecting a job after restore must match
  // injecting the same job into the never-interrupted twin.
  auto trace_cfg = sim::standard_week_trace(7);
  trace_cfg.duration_s = 3600.0;
  trace_cfg.cpu_jobs = 20;
  trace_cfg.gpu_jobs = 10;
  const auto trace = workload::TraceGenerator(trace_cfg).generate();
  sim::ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.drain_slack_s = 86400.0;
  config.engine.cluster.node_count = 4;

  workload::JobSpec extra;
  extra.id = 1000000;
  extra.kind = workload::JobKind::kCpu;
  extra.cpu_cores = 3;
  extra.cpu_work_core_s = 900.0;
  extra.mem_bw_gbps = 1.0;
  extra.llc_mb = 2.0;
  const double inject_t = 1800.0;
  extra.submit_time = inject_t;

  auto with_extra = trace;
  with_extra.push_back(extra);

  sim::Session uninterrupted =
      sim::Session::start(sim::Policy::kDrf, trace, config);
  sim::Session cut = sim::Session::start(sim::Policy::kDrf, trace, config);
  const double cut_vt = 1200.0;
  uninterrupted.engine->run_until(cut_vt);
  cut.engine->run_until(cut_vt);

  // Restore against the trace that includes the future injection — the
  // service builds this list from the embedded journal + tail.
  auto restored = snapshot_and_restore(with_extra, cut);
  ASSERT_TRUE(restored.ok()) << restored.error().message;

  uninterrupted.inject(extra, inject_t);
  restored->inject(extra, inject_t);
  EXPECT_EQ(report_of(*restored), report_of(uninterrupted));
}

TEST(Snapshot, RestoreRejectsUnknownJobIds) {
  // A snapshot referencing a job id absent from the supplied trace means
  // the embedded session and the state section disagree — fail loudly
  // instead of restoring a half-session.
  auto trace_cfg = sim::standard_week_trace(3);
  trace_cfg.duration_s = 3600.0;
  trace_cfg.cpu_jobs = 10;
  trace_cfg.gpu_jobs = 5;
  const auto trace = workload::TraceGenerator(trace_cfg).generate();
  sim::ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.engine.cluster.node_count = 4;

  sim::Session session =
      sim::Session::start(sim::Policy::kFifo, trace, config);
  session.engine->run_until(600.0);

  SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = session.engine->sim().now();
  meta.dispatched = session.engine->sim().dispatched();
  auto blob = capture_snapshot(meta, "", *session.engine,
                               *session.scheduler.scheduler);
  ASSERT_TRUE(blob.ok()) << blob.error().message;
  auto parsed = parse_snapshot(*blob);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;

  const std::vector<workload::JobSpec> empty_trace;
  auto restored =
      restore_session(*parsed, sim::Policy::kFifo, config, empty_trace);
  EXPECT_FALSE(restored.ok());
}

}  // namespace
}  // namespace coda::state
