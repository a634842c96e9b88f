// Tests for the snapshot subsystem (src/state): serde primitives, the
// snapshot container, durable file plumbing, and the headline property —
// a session snapshotted at ANY event boundary and restored must finish
// with the exact report bytes of the session that was never interrupted.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "perfmodel/contention.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/report_cache.h"
#include "sim/report_io.h"
#include "simcore/event_tags.h"
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

TEST(Serde, TypedReadChecksEachDestinationsRange) {
  {
    // At the limits: every destination takes its token, left to right.
    Reader r(
        "row 4294967295 4294967295 2147483647 -2147483648 1 3 0x1.8p+0\n");
    ASSERT_TRUE(r.expect("row"));
    cluster::NodeId node = 0;
    cluster::TenantId tenant = 0;
    int hi = 0;
    int lo = 0;
    bool flag = false;
    perfmodel::ModelId model = perfmodel::ModelId::kAlexnet;
    double x = 0.0;
    EXPECT_TRUE(r.read(node, tenant, hi, lo, flag, model, x));
    EXPECT_EQ(node, 4294967295u);
    EXPECT_EQ(tenant, 4294967295u);
    EXPECT_EQ(hi, 2147483647);
    EXPECT_EQ(lo, -2147483647 - 1);
    EXPECT_TRUE(flag);
    EXPECT_EQ(model, static_cast<perfmodel::ModelId>(3));
    EXPECT_EQ(x, 1.5);
  }
  // One past: the reader poisons instead of narrowing (4294967296 would
  // wrap to node 0, 2147483648 to INT_MIN).
  {
    Reader r("v 4294967296\n");
    ASSERT_TRUE(r.expect("v"));
    cluster::NodeId node = 7;
    EXPECT_FALSE(r.read(node));
    EXPECT_EQ(node, 0u);
  }
  {
    Reader r("v 4294967296\n");
    ASSERT_TRUE(r.expect("v"));
    cluster::TenantId tenant = 7;
    EXPECT_FALSE(r.read(tenant));
    EXPECT_NE(r.status().error().message.find("does not fit"),
              std::string::npos);
  }
  {
    Reader r("v 2147483648\n");
    ASSERT_TRUE(r.expect("v"));
    int value = 7;
    EXPECT_FALSE(r.read(value));
    EXPECT_EQ(value, 0);
  }
  {
    Reader r("v -1\n");  // no sign on an unsigned destination
    ASSERT_TRUE(r.expect("v"));
    uint64_t value = 7;
    EXPECT_FALSE(r.read(value));
  }
}

TEST(Serde, FieldListsRoundTripThroughTheSameList) {
  sim::JobRecord rec;
  rec.submit_time = -0x1.91eb851eb851fp+1;
  rec.first_start_time = 12.5;
  rec.preempt_count = 3;
  rec.completed = true;
  rec.restart_count = -1;
  rec.wasted_gpu_s = 1e300;
  sched::NodePlacement place{4000000000u, 12, 4};
  Writer w;
  w.line("rec", uint64_t{9}, fields(rec));
  w.line("place", fields(place));

  Reader r(w.text());
  sim::JobRecord rec_back;
  sched::NodePlacement place_back;
  uint64_t id = 0;
  ASSERT_TRUE(r.expect("rec"));
  EXPECT_TRUE(r.read(id, fields(rec_back)));
  ASSERT_TRUE(r.expect("place"));
  EXPECT_TRUE(r.read(fields(place_back)));
  EXPECT_EQ(id, 9u);
  EXPECT_TRUE(fields(rec_back) == fields(rec));
  EXPECT_TRUE(fields(place_back) == fields(place));
  // A short row poisons: the list wants every field.
  Reader short_row("place 1 2\n");
  ASSERT_TRUE(short_row.expect("place"));
  EXPECT_FALSE(short_row.read(fields(place_back)));
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
// save_state/load_state walk these structs' fields(r) lists. Growing one
// without adding the new member to its list silently drops it from
// snapshots — restored sessions would diverge. If a size below changes,
// update the struct's fields(r) list AND this expectation in the same
// commit.

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

// ------------------------------------------------------ pinned blob bytes

// The blob with the value of its `ctr placement_index_probes` row replaced
// by "-". The engine republishes the placement index's probe count as that
// counter, so a scheduler that makes the same decisions with fewer searches
// moves that row and no other.
std::string mask_probe_count(const std::string& blob) {
  const std::string key = "\nctr placement_index_probes ";
  const size_t at = blob.find(key);
  EXPECT_NE(at, std::string::npos);
  if (at == std::string::npos) {
    return blob;
  }
  const size_t from = at + key.size();
  return blob.substr(0, from) + "-" + blob.substr(blob.find('\n', from));
}

// Captures FIFO, DRF and CODA sessions at 75% of a 2-day horizon with
// every row-producing mechanism on (noise, MBA, retries, node outages, the
// event log), and pins each blob's size and digest: a codec change that
// moves a byte of any row fails here. The key census makes sure the three
// blobs exercise every row the engine, the schedulers and the container
// write, so the pin covers each of them. Each blob is pinned a second time
// with its probe count masked: a search change that keeps every decision
// moves only the full pin.
TEST(Snapshot, PinnedBlobDigests) {
  auto trace_cfg = sim::standard_week_trace(2);
  trace_cfg.duration_s = 2.0 * 86400.0;
  trace_cfg.cpu_jobs /= 3;
  trace_cfg.gpu_jobs /= 3;
  const auto trace = workload::TraceGenerator(trace_cfg).generate();
  sim::ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.engine.cluster.node_count = 80;
  config.engine.cluster.mba_fraction = 0.5;
  config.engine.util_noise_stddev = 0.05;
  config.engine.record_events = true;
  config.coda.eliminator.release_when_calm = false;
  config.retry.enabled = true;
  config.failures.node_mtbf_s = 7200.0;
  config.failures.outage_s = 600.0;
  config.failures.seed = 11;

  struct Pin {
    sim::Policy policy;
    size_t size;
    const char* digest;
  };
  const Pin pins[] = {
      {sim::Policy::kFifo, 2953288u, "c9bfd5855174ad34"},
      {sim::Policy::kDrf, 2953728u, "46965b5780415d22"},
      {sim::Policy::kCoda, 3598118u, "91d1ebcb9b62d8c8"},
  };
  const Pin masked_pins[] = {
      {sim::Policy::kFifo, 2953277u, "b8d1f4a124f647d2"},
      {sim::Policy::kDrf, 2953717u, "b17e9c64d540b9cc"},
      {sim::Policy::kCoda, 3598106u, "18818df50f430f6a"},
  };
  std::set<std::string> keys;
  for (size_t i = 0; i < std::size(pins); ++i) {
    const Pin& pin = pins[i];
    sim::Session session = sim::Session::start(pin.policy, trace, config);
    session.engine->run_until(0.75 * config.horizon_s);
    SnapshotMeta meta;
    meta.seq = 1;
    meta.virtual_time = session.engine->sim().now();
    meta.dispatched = session.engine->sim().dispatched();
    auto blob = capture_snapshot(meta, "", *session.engine,
                                 *session.scheduler.scheduler);
    ASSERT_TRUE(blob.ok()) << blob.error().message;
    sim::CacheKeyHasher h;
    h.mix(*blob);
    EXPECT_EQ(blob->size(), pin.size) << sim::to_string(pin.policy);
    EXPECT_EQ(h.hex(), pin.digest) << sim::to_string(pin.policy);
    const std::string masked = mask_probe_count(*blob);
    sim::CacheKeyHasher hm;
    hm.mix(masked);
    EXPECT_EQ(masked_pins[i].policy, pin.policy);
    EXPECT_EQ(masked.size(), masked_pins[i].size)
        << sim::to_string(pin.policy);
    EXPECT_EQ(hm.hex(), masked_pins[i].digest) << sim::to_string(pin.policy);
    size_t pos = 0;
    while (pos < blob->size()) {
      const size_t eol = blob->find('\n', pos);
      const std::string line = blob->substr(pos, eol - pos);
      keys.insert(line.substr(0, line.find(' ')));
      pos = eol == std::string::npos ? blob->size() : eol + 1;
    }
  }
  for (const char* key :
       {"CODA_SNAPSHOT", "meta", "session_bytes", "manifest", "event", "END",
        // engine
        "rng", "counts", "stats", "records", "rec", "pending", "pend",
        "remaining", "rem", "nodes", "node", "alloc", "running", "run",
        "place", "pstate", "res", "rid", "rep", "rj", "mba", "cap",
        "counters", "ctr", "series", "ser", "pt", "eventlog", "ev",
        // base scheduler, FIFO, DRF
        "retry_evictions", "evx", "fifo_queue", "fq", "fifo_gpu_pending",
        "drf_tenants", "ten", "tq", "drf_gpu_pending",
        // CODA, its allocator and its eliminator
        "coda_reservation", "coda_counters", "cpu_array", "four_gpu_array",
        "one_gpu_array", "aq", "aj", "au", "running_gpu", "rg", "rgp",
        "running_cpu", "rc", "tuning_outcomes", "oc", "pending_outcomes",
        "poc", "coda_nodes", "nv", "nj", "history", "hist", "alloc_sessions",
        "as", "elim_stats", "elim_throttled", "et"}) {
    EXPECT_EQ(keys.count(key), 1u) << "no blob carries a '" << key << "' row";
  }
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

// The ids of the `count` rows that follow the first `key` row, for `row`
// rows (every row when `row` is empty): each row's first token, or its
// second when the row starts with its key.
std::vector<uint64_t> ids_after(const std::string& bytes,
                                const std::string& key,
                                const std::string& row = "") {
  std::vector<uint64_t> ids;
  std::istringstream in(bytes);
  std::string line;
  uint64_t left = 0;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::string first;
    tokens >> first;
    if (left > 0) {
      --left;
      std::string id = first;
      if (!row.empty()) {
        if (first != row) {
          continue;
        }
        tokens >> id;
      }
      ids.push_back(std::stoull(id));
      if (left == 0) {
        break;
      }
    } else if (first == key && ids.empty()) {
      tokens >> left;
    }
  }
  return ids;
}

// Explicit ids may arrive below earlier ones: a SUBMIT names its own id,
// and a trace need not number its jobs in submit order. Every row whose
// bytes follow id order still comes out ascending: the snapshot's rec,
// pend and run rows and the report's record rows. A restore re-captures
// the snapshot byte for byte and finishes with the uninterrupted report.
TEST(Snapshot, OutOfOrderIdsKeepEveryIdKeyedRowAscending) {
  auto trace_cfg = sim::standard_week_trace(5);
  trace_cfg.duration_s = 2.0 * 3600.0;
  trace_cfg.cpu_jobs = 40;
  trace_cfg.gpu_jobs = 20;
  auto trace = workload::TraceGenerator(trace_cfg).generate();
  // Submit order interleaves a falling and a rising run of ids.
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = i % 2 == 0 ? 500 - i : 500 + i;
  }
  sim::ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.drain_slack_s = 86400.0;
  config.engine.cluster.node_count = 8;

  // Three live SUBMITs at the cut, two of them below every trace id.
  std::vector<workload::JobSpec> extra;
  for (uint64_t id : {7, 900, 3}) {
    workload::JobSpec spec;
    spec.id = id;
    spec.kind = workload::JobKind::kCpu;
    spec.cpu_cores = 16;
    spec.cpu_work_core_s = 16.0 * 1800.0;
    spec.mem_bw_gbps = 1.0;
    spec.llc_mb = 2.0;
    extra.push_back(spec);
  }

  sim::Session uninterrupted =
      sim::Session::start(sim::Policy::kFifo, trace, config);
  sim::Session cut = sim::Session::start(sim::Policy::kFifo, trace, config);
  const double cut_vt = 5400.0;
  for (sim::Session* s : {&uninterrupted, &cut}) {
    s->engine->run_until(cut_vt);
    for (workload::JobSpec& spec : extra) {
      spec.submit_time = s->injection_instant();
      s->inject(spec, spec.submit_time);
    }
    s->engine->run_until(cut_vt + 1.0);
  }
  auto with_extra = trace;
  with_extra.insert(with_extra.end(), extra.begin(), extra.end());

  SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = cut.engine->sim().now();
  meta.dispatched = cut.engine->sim().dispatched();
  auto blob = capture_snapshot(meta, "", *cut.engine,
                               *cut.scheduler.scheduler);
  ASSERT_TRUE(blob.ok()) << blob.error().message;
  for (const auto& [key, row] :
       {std::pair<std::string, std::string>{"records", "rec"},
        {"pending", "pend"},
        {"running", "run"}}) {
    const std::vector<uint64_t> ids = ids_after(*blob, key, row);
    EXPECT_FALSE(ids.empty()) << key;
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end())) << key;
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end()) << key;
  }
  EXPECT_EQ(ids_after(*blob, "records", "rec").size(), with_extra.size());

  auto parsed = parse_snapshot(*blob);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  auto restored =
      restore_session(*parsed, sim::Policy::kFifo, config, with_extra);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  auto again = capture_snapshot(restored->meta, parsed->session_text,
                                *restored->engine,
                                *restored->scheduler.scheduler);
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(*again, *blob);

  const std::string report = report_of(*restored);
  EXPECT_EQ(report, report_of(uninterrupted));
  const std::vector<uint64_t> reported = ids_after(report, "records");
  EXPECT_EQ(reported.size(), with_extra.size());
  EXPECT_TRUE(std::is_sorted(reported.begin(), reported.end()));
}

// --------------------------------------------------- hostile snapshots
//
// Edited snapshots the restored engine cannot run. Restore must refuse each
// with an error; accepting one ends in an abort later (when the manifest is
// re-armed, when an event fires, or when the session finishes).

struct CutSession {
  sim::Policy policy = sim::Policy::kFifo;
  std::vector<workload::JobSpec> trace;
  sim::ExperimentConfig config;
  std::string blob;
};

// An 8-node session with node outages, snapshotted 20 minutes in (or at
// `cut_vt`): the blob holds running jobs (`place` rows) and a manifest
// with arrivals, finishes and outages.
CutSession cut_session(sim::Policy policy, double cut_vt = 1200.0) {
  CutSession cut;
  cut.policy = policy;
  auto trace_cfg = sim::standard_week_trace(5);
  trace_cfg.duration_s = 2.0 * 3600.0;
  trace_cfg.cpu_jobs = 40;
  trace_cfg.gpu_jobs = 20;
  cut.trace = workload::TraceGenerator(trace_cfg).generate();
  cut.config.horizon_s = trace_cfg.duration_s;
  cut.config.drain_slack_s = 86400.0;
  cut.config.engine.cluster.node_count = 8;
  cut.config.failures.node_mtbf_s = 1800.0;
  cut.config.failures.outage_s = 300.0;
  sim::Session session = sim::Session::start(policy, cut.trace, cut.config);
  session.engine->run_until(cut_vt);
  SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = session.engine->sim().now();
  meta.dispatched = session.engine->sim().dispatched();
  auto blob = capture_snapshot(meta, "", *session.engine,
                               *session.scheduler.scheduler);
  EXPECT_TRUE(blob.ok()) << blob.error().message;
  cut.blob = blob.ok() ? *blob : std::string();
  return cut;
}

// Rewrites the first row whose tokens `edit` accepts (and edits in place);
// empty when no row matches.
std::string edit_row(
    const std::string& blob,
    const std::function<bool(std::vector<std::string>*)>& edit) {
  for (size_t pos = 0; pos < blob.size();) {
    const size_t end = std::min(blob.find('\n', pos), blob.size());
    std::vector<std::string> tokens;
    std::string token;
    std::istringstream line(blob.substr(pos, end - pos));
    while (line >> token) {
      tokens.push_back(token);
    }
    if (!tokens.empty() && edit(&tokens)) {
      std::string row;
      for (const std::string& t : tokens) {
        row += (row.empty() ? "" : " ") + t;
      }
      return blob.substr(0, pos) + row + blob.substr(end);
    }
    pos = end + 1;
  }
  return std::string();
}

// Sets token `index` of the first `key` row whose token `match_index`
// equals `match` (any row of that key when `match` is empty).
std::string set_token(const std::string& blob, const std::string& key,
                      size_t index, const std::string& value,
                      size_t match_index = 0, const std::string& match = "") {
  return edit_row(blob, [&](std::vector<std::string>* t) {
    if ((*t)[0] != key || t->size() <= std::max(index, match_index) ||
        (!match.empty() && (*t)[match_index] != match)) {
      return false;
    }
    (*t)[index] = value;
    return true;
  });
}

// Restores `blob` and, when the restore accepts it, runs the session to
// its end.
util::Status restore_and_finish(const CutSession& cut,
                                const std::string& blob) {
  auto parsed = parse_snapshot(blob);
  if (!parsed.ok()) {
    return parsed.error();
  }
  auto restored =
      restore_session(*parsed, cut.policy, cut.config, cut.trace);
  if (!restored.ok()) {
    return restored.error();
  }
  restored->finish();
  return util::Status::Ok();
}

TEST(Snapshot, RestoreRefusesAPlacementOffTheCluster) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  ASSERT_TRUE(restore_and_finish(cut, cut.blob).ok());  // unedited: runs
  const std::string blob = set_token(cut.blob, "place", 1, "999");
  ASSERT_FALSE(blob.empty());
  EXPECT_FALSE(restore_and_finish(cut, blob).ok());
}

TEST(Snapshot, RestoreRefusesAPlacementMovedOffItsAllocation) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string blob = set_token(cut.blob, "place", 1, "1", 1, "0");
  ASSERT_FALSE(blob.empty());
  EXPECT_FALSE(restore_and_finish(cut, blob).ok());
}

// A leg count no cluster holds is refused before anything is sized by it.
TEST(Snapshot, RestoreRefusesARunningJobWithMoreLegsThanNodes) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string blob = set_token(cut.blob, "run", 12, "1000000000000");
  ASSERT_FALSE(blob.empty());
  EXPECT_FALSE(restore_and_finish(cut, blob).ok());
}

TEST(Snapshot, RestoreRefusesAManifestEventBeforeTheCut) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string blob = set_token(cut.blob, "event", 1, "0x0p+0");
  ASSERT_FALSE(blob.empty());
  EXPECT_FALSE(restore_and_finish(cut, blob).ok());
}

TEST(Snapshot, RestoreRefusesAFinishForAJobThatIsNotRunning) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string blob =
      set_token(cut.blob, "event", 3, "999999", 2,
                std::to_string(simcore::kTagJobFinish));
  ASSERT_FALSE(blob.empty());
  EXPECT_FALSE(restore_and_finish(cut, blob).ok());
}

TEST(Snapshot, RestoreRefusesAnArrivalForAnUnknownJob) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string blob =
      set_token(cut.blob, "event", 3, "999999", 2,
                std::to_string(simcore::kTagArrival));
  ASSERT_FALSE(blob.empty());
  EXPECT_FALSE(restore_and_finish(cut, blob).ok());
}

TEST(Snapshot, RestoreRefusesAnOutageOnAnUnknownNode) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string blob =
      set_token(cut.blob, "event", 3, "999", 2,
                std::to_string(simcore::kTagNodeFail));
  ASSERT_FALSE(blob.empty());
  EXPECT_FALSE(restore_and_finish(cut, blob).ok());
}

TEST(Snapshot, RestoreRefusesAnMbaCapOnAnUnknownNode) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const size_t at = cut.blob.find("\nmba 0\n");
  ASSERT_NE(at, std::string::npos);
  std::string blob = cut.blob;
  blob.replace(at, 7, "\nmba 1\ncap 999 1 0x1p+0\n");
  EXPECT_FALSE(restore_and_finish(cut, blob).ok());
}

// The row's node id is range-checked as read: 4294967297 is not node 1.
TEST(Snapshot, RestoreRefusesAThrottleRecordPastTheNodeIdRange) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const auto throttled = [&cut](const std::string& node) {
    return edit_row(cut.blob, [&node](std::vector<std::string>* t) {
      if ((*t)[0] != "elim_throttled") {
        return false;
      }
      (*t)[1] = std::to_string(std::stoull((*t)[1]) + 1) +
                "\net 999999 " + node + " 1 0";
      return true;
    });
  };
  auto parsed = parse_snapshot(throttled("1"));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_TRUE(
      restore_session(*parsed, cut.policy, cut.config, cut.trace).ok());
  parsed = parse_snapshot(throttled("4294967297"));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  auto refused = restore_session(*parsed, cut.policy, cut.config, cut.trace);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().message.find("does not fit"), std::string::npos)
      << refused.error().message;
}

// CODA's running-job rows name nodes, and its per-node rows restate what
// those rows imply. Each edit below makes them disagree with the cluster
// or with each other; restored anyway, such a session can crash or abort
// (a node off the cluster indexes past the per-node vectors, a short
// borrowed count trips the accounting assert).

// The message restore (or the run after it) refuses `blob` with; empty
// when the session restores and runs to its end.
std::string refusal(const CutSession& cut, const std::string& blob) {
  const util::Status status = restore_and_finish(cut, blob);
  return status.ok() ? std::string() : status.error().message;
}

// A second copy of a running job's rows (run, place, pstate) would give the
// job two places in the metrics tick's table.
TEST(Snapshot, RestoreRefusesARunningJobListedTwice) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const size_t run = cut.blob.find("\nrun ");
  ASSERT_NE(run, std::string::npos);
  size_t end = run + 1;
  do {
    end = cut.blob.find('\n', end) + 1;
  } while (cut.blob.compare(end, 6, "place ") == 0 ||
           cut.blob.compare(end, 7, "pstate ") == 0);
  const std::string block = cut.blob.substr(run + 1, end - run - 1);
  std::string blob = cut.blob;
  blob.insert(end, block);
  blob = edit_row(blob, [](std::vector<std::string>* t) {
    if ((*t)[0] != "running") {
      return false;
    }
    (*t)[1] = std::to_string(std::stoull((*t)[1]) + 1);
    return true;
  });
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("running job listed twice"),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesACodaCpuJobOffTheCluster) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  ASSERT_TRUE(restore_and_finish(cut, cut.blob).ok());  // unedited: runs
  const std::string blob = set_token(cut.blob, "rc", 2, "999");
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("rc row names a node off the cluster"),
            std::string::npos);
}

TEST(Snapshot, RestoreRefusesACodaGpuLegOffTheCluster) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const std::string blob = set_token(cut.blob, "rgp", 1, "999");
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("rgp row names a node off the cluster"),
            std::string::npos);
}

TEST(Snapshot, RestoreRefusesAPerNodeCpuJobWithoutItsRow) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const std::string blob = set_token(cut.blob, "nj", 1, "999999");
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("nj row 999999 is not one of"),
            std::string::npos);
}

// Node 0's `nv` row counts fewer borrowed cores than its CPU jobs hold.
TEST(Snapshot, RestoreRefusesABorrowedCountBelowItsCpuJobs) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const std::string blob = set_token(cut.blob, "nv", 3, "0", 1, "0");
  ASSERT_FALSE(blob.empty());
  ASSERT_NE(blob, cut.blob);  // the cut has borrowed cores on node 0
  EXPECT_NE(refusal(cut, blob).find("nv row of node 0 disagrees"),
            std::string::npos);
}

TEST(Snapshot, RestoreRefusesGpuCoresThePerNodeRowMiscounts) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const std::string blob = edit_row(cut.blob, [](std::vector<std::string>* t) {
    if ((*t)[0] != "nv" || (*t)[2] == "0") {
      return false;
    }
    (*t)[2] = std::to_string(std::stoi((*t)[2]) - 1);
    return true;
  });
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("disagrees with the running jobs"),
            std::string::npos);
}

// Repeats the first manifest entry of `kind` (both rows turned into `as`
// when given) and counts the copy in the manifest header.
std::string repeat_event(const std::string& blob, uint32_t kind,
                         uint32_t as = 0) {
  const std::string out =
      edit_row(blob, [kind, as](std::vector<std::string>* t) {
        if ((*t)[0] != "event" || t->size() != 5 ||
            (*t)[2] != std::to_string(kind)) {
          return false;
        }
        if (as != 0) {
          (*t)[2] = std::to_string(as);
        }
        (*t)[4] += "\nevent " + (*t)[1] + " " + (*t)[2] + " " + (*t)[3] +
                   " " + (*t)[4];
        return true;
      });
  return out.empty() ? out : edit_row(out, [](std::vector<std::string>* t) {
    if ((*t)[0] != "manifest") {
      return false;
    }
    (*t)[1] = std::to_string(std::stoull((*t)[1]) + 1);
    return true;
  });
}

// The manifest holds at most one live entry per key: a second finish would
// abort in finish_job, a second arrival in the policy's start_job, and a
// second periodic tick would silently tick twice.
TEST(Snapshot, RestoreRefusesASecondFinishForOneJob) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string blob = repeat_event(cut.blob, simcore::kTagJobFinish);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("repeats a live entry"), std::string::npos);
}

TEST(Snapshot, RestoreRefusesASecondArrivalForOneJob) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string blob = repeat_event(cut.blob, simcore::kTagArrival);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("repeats a live entry"), std::string::npos);
}

// The cut holds no retry, so an arrival's row stands in for one.
TEST(Snapshot, RestoreRefusesASecondRetryForOneJob) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string blob = repeat_event(cut.blob, simcore::kTagArrival,
                                        simcore::kTagRetryResubmit);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("repeats a live entry"), std::string::npos);
}

// An arrival needs a job that has not arrived yet, and a retry a job in
// retry backoff: pending, not running and not in the policy's queue.
// Otherwise the resubmission hands the policy a job it is already running
// or queueing, or one the engine never marked pending, and the session
// aborts when the policy starts it.

// Token `index` of the first `key` row whose token `match_index` equals
// `match` (any row of that key when `match` is empty); empty when there is
// none.
std::string token_of(const std::string& blob, const std::string& key,
                     size_t index, size_t match_index = 0,
                     const std::string& match = "") {
  std::string out;
  edit_row(blob, [&](std::vector<std::string>* t) {
    if (out.empty() && (*t)[0] == key &&
        t->size() > std::max(index, match_index) &&
        (match.empty() || (*t)[match_index] == match)) {
      out = (*t)[index];
    }
    return false;
  });
  return out;
}

// Turns the first arrival in the manifest into an entry of `kind` for job
// `id`.
std::string repoint_arrival(const std::string& blob, uint32_t kind,
                            const std::string& id) {
  return edit_row(blob, [&](std::vector<std::string>* t) {
    if ((*t)[0] != "event" || t->size() != 5 ||
        (*t)[2] != std::to_string(simcore::kTagArrival)) {
      return false;
    }
    (*t)[2] = std::to_string(kind);
    (*t)[3] = id;
    return true;
  });
}

TEST(Snapshot, RestoreRefusesAnArrivalForARunningJob) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string running = token_of(cut.blob, "run", 1);
  ASSERT_FALSE(running.empty());
  const std::string blob =
      repoint_arrival(cut.blob, simcore::kTagArrival, running);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("already arrived"), std::string::npos)
      << refusal(cut, blob);
}

// The arrival's own job, never arrived, gets a retry instead.
TEST(Snapshot, RestoreRefusesARetryForAJobThatNeverArrived) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string arriving = token_of(
      cut.blob, "event", 3, 2, std::to_string(simcore::kTagArrival));
  ASSERT_FALSE(arriving.empty());
  const std::string blob =
      repoint_arrival(cut.blob, simcore::kTagRetryResubmit, arriving);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("not in retry backoff"),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesARetryForARunningJob) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string running = token_of(cut.blob, "run", 1);
  ASSERT_FALSE(running.empty());
  const std::string blob =
      repoint_arrival(cut.blob, simcore::kTagRetryResubmit, running);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("not in retry backoff"),
            std::string::npos)
      << refusal(cut, blob);
}

// FIFO holds no queue 20 minutes in; 90 minutes in it queues two jobs.
TEST(Snapshot, RestoreRefusesARetryForAJobThePolicyQueued) {
  const CutSession cut = cut_session(sim::Policy::kFifo, 5400.0);
  const std::string queued = token_of(cut.blob, "fq", 1);
  ASSERT_FALSE(queued.empty());
  const std::string blob =
      repoint_arrival(cut.blob, simcore::kTagRetryResubmit, queued);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("not in retry backoff"),
            std::string::npos)
      << refusal(cut, blob);
}

// The baseline queue rows restore refuses, each of which would abort the
// restored session later: a queued job that is running or queued twice
// starts twice, a DRF allocation that its tenant's running jobs do not
// hold drives the share negative, and a GPU-pending count the queue
// disagrees with wraps below zero. Both policies queue jobs 90 minutes in.
TEST(Snapshot, RestoreRefusesAFifoQueueRowNamingARunningJob) {
  const CutSession cut = cut_session(sim::Policy::kFifo, 5400.0);
  ASSERT_TRUE(restore_and_finish(cut, cut.blob).ok());  // unedited: runs
  const std::string running = token_of(cut.blob, "run", 1);
  ASSERT_FALSE(running.empty());
  const std::string blob = set_token(cut.blob, "fq", 1, running);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("names a running or already queued job"),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesARepeatedFifoQueueRow) {
  const CutSession cut = cut_session(sim::Policy::kFifo, 5400.0);
  const std::string queued = token_of(cut.blob, "fq", 1);
  ASSERT_FALSE(queued.empty());
  const std::string blob =
      edit_row(cut.blob, [&queued](std::vector<std::string>* t) {
        if ((*t)[0] != "fifo_queue") {
          return false;
        }
        (*t)[1] = std::to_string(std::stoull((*t)[1]) + 1) + "\nfq " + queued;
        return true;
      });
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("names a running or already queued job"),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesADrfQueueRowNamingARunningJob) {
  const CutSession cut = cut_session(sim::Policy::kDrf, 5400.0);
  ASSERT_TRUE(restore_and_finish(cut, cut.blob).ok());  // unedited: runs
  const std::string running = token_of(cut.blob, "run", 1);
  ASSERT_FALSE(running.empty());
  const std::string blob = set_token(cut.blob, "tq", 1, running);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("names a running or already queued job"),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesADrfAllocationItsRunningJobsDoNotHold) {
  const CutSession cut = cut_session(sim::Policy::kDrf, 5400.0);
  const std::string blob = edit_row(cut.blob, [](std::vector<std::string>* t) {
    if ((*t)[0] != "ten" || t->size() != 5 || (*t)[2] == "0") {
      return false;
    }
    (*t)[2] = "0";
    return true;
  });
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("but its running jobs hold"),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesAFifoGpuCountTheQueueDisagreesWith) {
  const CutSession cut = cut_session(sim::Policy::kFifo, 5400.0);
  ASSERT_EQ(token_of(cut.blob, "fifo_gpu_pending", 1), "2");
  const std::string blob = set_token(cut.blob, "fifo_gpu_pending", 1, "0");
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("fifo_gpu_pending 0 but 2 GPU jobs"),
            std::string::npos)
      << refusal(cut, blob);
}

// A queue row naming a job that has not arrived yet (its arrival is still
// in the manifest) is refused under every policy. Restored, the policy
// would start the job before it arrives, which aborts the engine, and the
// arrival would then submit it a second time.

// Adds a `<row> <id>` row after the first `key` row that `match` accepts,
// and counts it in that row's token `count`.
using RowMatch = std::function<bool(const std::vector<std::string>&)>;
std::string queue_job(const std::string& blob, const std::string& key,
                      size_t count, const std::string& row,
                      const std::string& id,
                      const RowMatch& match = nullptr) {
  return edit_row(blob, [&](std::vector<std::string>* t) {
    if ((*t)[0] != key || t->size() <= count || (match && !match(*t))) {
      return false;
    }
    (*t)[count] = std::to_string(std::stoull((*t)[count]) + 1);
    t->back() += "\n" + row + " " + id;
    return true;
  });
}

// The first CPU (or GPU) job whose arrival is still in the cut's manifest.
workload::JobSpec first_arriving_job(const CutSession& cut, bool gpu) {
  std::set<cluster::JobId> arriving;
  edit_row(cut.blob, [&](std::vector<std::string>* t) {
    if ((*t)[0] == "event" && t->size() == 5 &&
        (*t)[2] == std::to_string(simcore::kTagArrival)) {
      arriving.insert(std::stoull((*t)[3]));
    }
    return false;
  });
  for (const workload::JobSpec& spec : cut.trace) {
    if (spec.is_gpu_job() == gpu && arriving.count(spec.id) > 0) {
      return spec;
    }
  }
  ADD_FAILURE() << "no such job arrives after the cut";
  return workload::JobSpec{};
}

TEST(Snapshot, RestoreRefusesAFifoQueueRowForAJobNotYetArrived) {
  const CutSession cut = cut_session(sim::Policy::kFifo, 5400.0);
  const workload::JobSpec job = first_arriving_job(cut, /*gpu=*/false);
  const std::string blob =
      queue_job(cut.blob, "fifo_queue", 1, "fq", std::to_string(job.id));
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find(
                "names a job the engine does not hold as pending"),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesADrfQueueRowForAJobNotYetArrived) {
  const CutSession cut = cut_session(sim::Policy::kDrf, 5400.0);
  const workload::JobSpec job = first_arriving_job(cut, /*gpu=*/false);
  const std::string tenant = std::to_string(job.tenant);
  const std::string blob =
      queue_job(cut.blob, "ten", 4, "tq", std::to_string(job.id),
                [&](const std::vector<std::string>& t) {
                  return t[1] == tenant;
                });
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find(
                "names a job the engine does not hold as pending"),
            std::string::npos)
      << refusal(cut, blob);
}

// CODA writes its CPU array first, so the first `aq` row of the job's
// tenant is that tenant's CPU queue.
TEST(Snapshot, RestoreRefusesACodaQueueRowForAJobNotYetArrived) {
  const CutSession cut = cut_session(sim::Policy::kCoda, 5400.0);
  ASSERT_TRUE(restore_and_finish(cut, cut.blob).ok());  // unedited: runs
  const workload::JobSpec job = first_arriving_job(cut, /*gpu=*/false);
  const std::string tenant = std::to_string(job.tenant);
  const std::string blob =
      queue_job(cut.blob, "aq", 2, "aj", std::to_string(job.id),
                [&](const std::vector<std::string>& t) {
                  return t[1] == tenant;
                });
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find(
                "names a job the engine does not hold as pending"),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesACodaQueueRowNamingARunningJob) {
  const CutSession cut = cut_session(sim::Policy::kCoda, 5400.0);
  const std::string running = token_of(cut.blob, "run", 1);
  ASSERT_FALSE(running.empty());
  const std::string blob = queue_job(cut.blob, "aq", 2, "aj", running);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("names a running or already queued job"),
            std::string::npos)
      << refusal(cut, blob);
}

// One slot per job holds its record, its pending time, its preserved work
// and its running state, so restore refuses rows that slot cannot hold: a
// pending job or preserved work without a record (starting the job reads
// the record), a record listed twice, and a job both pending and running.
// Preserved work beside a running job stays legal: start_job reads it
// without erasing it.

// Removes the `key` row naming `id` and lowers the `count_key` row by one.
std::string drop_row(const std::string& blob, const std::string& key,
                     const std::string& id, const std::string& count_key) {
  const size_t at = blob.find("\n" + key + " " + id + " ");
  if (at == std::string::npos) {
    return std::string();
  }
  const std::string dropped =
      blob.substr(0, at) + blob.substr(blob.find('\n', at + 1));
  return edit_row(dropped, [&](std::vector<std::string>* t) {
    if ((*t)[0] != count_key) {
      return false;
    }
    (*t)[1] = std::to_string(std::stoull((*t)[1]) - 1);
    return true;
  });
}

TEST(Snapshot, RestoreRefusesAPendingJobWithoutARecord) {
  const CutSession cut = cut_session(sim::Policy::kFifo, 5400.0);
  const std::string queued = token_of(cut.blob, "pend", 1);
  ASSERT_FALSE(queued.empty());
  const std::string blob = drop_row(cut.blob, "rec", queued, "records");
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("pending job without a record: " +
                                    queued),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesPreservedWorkWithoutARecord) {
  const CutSession cut = cut_session(sim::Policy::kFifo, 5400.0);
  const std::string blob =
      queue_job(cut.blob, "remaining", 1, "rem", "999999 250");
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find(
                "preserved work without a record: 999999"),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesARecordListedTwice) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const size_t rec = cut.blob.find("\nrec ");
  ASSERT_NE(rec, std::string::npos);
  const std::string row =
      cut.blob.substr(rec + 1, cut.blob.find('\n', rec + 1) - rec - 1);
  const std::string blob =
      queue_job(cut.blob, "records", 1, "rec", row.substr(4));
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("job record listed twice: " +
                                    token_of(row, "rec", 1)),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesAJobBothPendingAndRunning) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string running = token_of(cut.blob, "run", 1);
  ASSERT_FALSE(running.empty());
  const std::string blob =
      queue_job(cut.blob, "pending", 1, "pend", running + " 600");
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("running job listed as pending: " +
                                    running),
            std::string::npos)
      << refusal(cut, blob);
}

// A tuning GPU job's pending outcome (`poc`) and session (`as`) live in its
// running record, so restore refuses rows no record can hold: each list
// names exactly the tuning jobs, in id order. Refused: a tuning job without
// either row, a row for a job that is not a tuning running GPU job (here
// one whose arrival is still in the manifest, added or in a tuning job's
// place), and a session in the done phase, which no session is in between
// events. The cut holds two tuning jobs. Restored, the dropped rows, the
// done phase and the added session abort the session (at a tuning tick's
// convergence or step, or at the job's start); the added outcome restored
// silently.

TEST(Snapshot, RestoreRefusesATuningJobWithoutItsPendingOutcome) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const std::string tuning = token_of(cut.blob, "poc", 1);
  ASSERT_FALSE(tuning.empty());
  const std::string blob =
      drop_row(cut.blob, "poc", tuning, "pending_outcomes");
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("pending_outcomes 1 but 2 GPU jobs are "
                                    "tuning"),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesATuningJobWithoutItsSession) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const std::string tuning = token_of(cut.blob, "as", 1);
  ASSERT_FALSE(tuning.empty());
  const std::string blob = drop_row(cut.blob, "as", tuning, "alloc_sessions");
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("alloc_sessions 1 but 2 GPU jobs are "
                                    "tuning"),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesATuningSessionInItsDonePhase) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const std::string tuning = token_of(cut.blob, "as", 1);
  ASSERT_FALSE(tuning.empty());
  const std::string blob = set_token(cut.blob, "as", 2, "6", 1, tuning);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("tuning session of job " + tuning +
                                    " has invalid phase 6"),
            std::string::npos)
      << refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesATuningSessionForAJobNotYetArrived) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const std::string id =
      std::to_string(first_arriving_job(cut, /*gpu=*/true).id);
  const std::string added = queue_job(cut.blob, "alloc_sessions", 1, "as",
                                      id + " 0 3 0 0x0p+0 1 0x0p+0 0 0");
  ASSERT_FALSE(added.empty());
  EXPECT_NE(refusal(cut, added).find("alloc_sessions 3 but 2 GPU jobs are "
                                     "tuning"),
            std::string::npos)
      << refusal(cut, added);
  const std::string tuning = token_of(cut.blob, "as", 1);
  const std::string moved = set_token(cut.blob, "as", 1, id);
  ASSERT_FALSE(moved.empty());
  EXPECT_NE(refusal(cut, moved).find("as row " + id +
                                     " is not tuning GPU job " + tuning),
            std::string::npos)
      << refusal(cut, moved);
}

TEST(Snapshot, RestoreRefusesAPendingOutcomeForAJobNotYetArrived) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const workload::JobSpec job = first_arriving_job(cut, /*gpu=*/true);
  const std::string id = std::to_string(job.id);
  const std::string added = queue_job(
      cut.blob, "pending_outcomes", 1, "poc",
      id + " " + std::to_string(static_cast<int>(job.model)) + " 2 3 3 0");
  ASSERT_FALSE(added.empty());
  EXPECT_NE(refusal(cut, added).find("pending_outcomes 3 but 2 GPU jobs are "
                                     "tuning"),
            std::string::npos)
      << refusal(cut, added);
  const std::string tuning = token_of(cut.blob, "poc", 1);
  const std::string moved = set_token(cut.blob, "poc", 1, id);
  ASSERT_FALSE(moved.empty());
  EXPECT_NE(refusal(cut, moved).find("poc row " + id +
                                     " is not tuning GPU job " + tuning),
            std::string::npos)
      << refusal(cut, moved);
}

// CODA's running records must be the engine's allocations, and its array
// usage rows what those records hold. A job holding an allocation without
// a record is released by nobody: restored, the outage that evicts it
// aborts the session. A record or usage row its jobs do not hold returns
// cores, GPUs or shares no node lent.

TEST(Snapshot, RestoreRefusesACodaJobWithoutItsRecord) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  // Job 3 runs one leg, not tuning and not borrowing across arrays. Its
  // `rg` and `rgp` rows go, and so do its cores from that node's `nv` row,
  // so the per-node rows still agree with the records.
  ASSERT_EQ(token_of(cut.blob, "rg", 4, 1, "3"), "0");  // cross-borrower
  ASSERT_EQ(token_of(cut.blob, "rg", 6, 1, "3"), "0");  // tuning
  ASSERT_EQ(token_of(cut.blob, "rg", 7, 1, "3"), "1");  // legs
  const size_t rgp = cut.blob.find('\n', cut.blob.find("\nrg 3 ") + 1);
  const size_t end = cut.blob.find('\n', rgp + 1);
  const std::string leg = cut.blob.substr(rgp + 1, end - rgp - 1);
  std::string blob = drop_row(cut.blob.substr(0, rgp) + cut.blob.substr(end),
                              "rg", "3", "running_gpu");
  blob = edit_row(blob, [&leg](std::vector<std::string>* t) {
    if ((*t)[0] != "nv" || (*t)[1] != token_of(leg, "rgp", 1)) {
      return false;
    }
    (*t)[2] = std::to_string(std::stoi((*t)[2]) -
                             std::stoi(token_of(leg, "rgp", 2)));
    return true;
  });
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("rg and rc rows are not the running "
                                    "jobs and their allocations"),
            std::string::npos)
      << refusal(cut, blob);
}

// A GPU leg one GPU wider, and a CPU job one core wider, than the node lent.
TEST(Snapshot, RestoreRefusesACodaRecordWhoseLegsAreNotItsAllocations) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  for (const auto& [row, index] : {std::pair{"rgp", 3}, std::pair{"rc", 3}}) {
    const std::string value = token_of(cut.blob, row, index);
    ASSERT_FALSE(value.empty()) << row;
    const std::string blob = set_token(cut.blob, row, index,
                                       std::to_string(std::stoi(value) + 1));
    EXPECT_NE(refusal(cut, blob).find("rg and rc rows are not the running "
                                      "jobs and their allocations"),
              std::string::npos)
        << refusal(cut, blob);
  }
}

// The first `au` row of each array, one more than its jobs hold.
TEST(Snapshot, RestoreRefusesACodaArrayUsageItsJobsDoNotHold) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  for (const std::string array :
       {"cpu_array", "four_gpu_array", "one_gpu_array"}) {
    const size_t at = cut.blob.find("\n" + array + " ");
    ASSERT_NE(at, std::string::npos);
    const std::string rest =
        edit_row(cut.blob.substr(at), [](std::vector<std::string>* t) {
          if ((*t)[0] != "au") {
            return false;
          }
          (*t)[2] = std::to_string(std::stoi((*t)[2]) + 1);
          return true;
        });
    ASSERT_FALSE(rest.empty()) << array;
    const std::string blob = cut.blob.substr(0, at) + rest;
    EXPECT_NE(refusal(cut, blob).find("au rows of " + array +
                                      " differ from what its jobs hold"),
              std::string::npos)
        << refusal(cut, blob);
  }
}

// What the checks above must keep restoring: a job a node failure evicted,
// waiting out its retry backoff. Each policy's session is cut at the first
// five-minute mark whose manifest holds a retry, and the restored session
// finishes with the uninterrupted session's report bytes.
TEST(Snapshot, RestoreKeepsARetryInBackoff) {
  auto trace_cfg = sim::standard_week_trace(5);
  trace_cfg.duration_s = 2.0 * 3600.0;
  trace_cfg.cpu_jobs = 40;
  trace_cfg.gpu_jobs = 20;
  const auto trace = workload::TraceGenerator(trace_cfg).generate();
  sim::ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.drain_slack_s = 86400.0;
  config.engine.cluster.node_count = 8;
  config.failures.node_mtbf_s = 1800.0;
  config.failures.outage_s = 300.0;
  config.retry.enabled = true;
  config.retry.backoff_base_s = 600.0;
  config.retry.max_retries = 3;
  for (sim::Policy policy :
       {sim::Policy::kFifo, sim::Policy::kDrf, sim::Policy::kCoda}) {
    sim::Session uninterrupted = sim::Session::start(policy, trace, config);
    sim::Session cut = sim::Session::start(policy, trace, config);
    bool retry_in_flight = false;
    for (double t = 300.0; t <= config.horizon_s && !retry_in_flight;
         t += 300.0) {
      cut.engine->run_until(t);
      SnapshotMeta meta;
      meta.virtual_time = cut.engine->sim().now();
      meta.dispatched = cut.engine->sim().dispatched();
      auto blob = capture_snapshot(meta, "", *cut.engine,
                                   *cut.scheduler.scheduler);
      ASSERT_TRUE(blob.ok()) << blob.error().message;
      retry_in_flight =
          !token_of(*blob, "event", 3, 2,
                    std::to_string(simcore::kTagRetryResubmit))
               .empty();
    }
    ASSERT_TRUE(retry_in_flight) << sim::to_string(policy);
    auto restored = snapshot_and_restore(trace, cut);
    ASSERT_TRUE(restored.ok())
        << sim::to_string(policy) << ": " << restored.error().message;
    EXPECT_EQ(report_of(*restored), report_of(uninterrupted))
        << sim::to_string(policy);
  }
}

TEST(Snapshot, RestoreRefusesASecondMetricsTick) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  const std::string blob = repeat_event(cut.blob, simcore::kTagMetricsTick);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("repeats a live entry"), std::string::npos);
}

TEST(Snapshot, RestoreRefusesASecondEliminatorTick) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const std::string blob =
      repeat_event(cut.blob, simcore::kTagEliminatorTick);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("repeats a live entry"), std::string::npos);
}

TEST(Snapshot, RestoreRefusesASecondReservationTick) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const std::string blob =
      repeat_event(cut.blob, simcore::kTagReservationTick);
  ASSERT_FALSE(blob.empty());
  EXPECT_NE(refusal(cut, blob).find("repeats a live entry"), std::string::npos);
}

// Tuning ticks are keyed by (job, generation): a second tick of another
// generation is the stale timer a migration leaves behind and restores;
// a second tick of the same generation is refused.
TEST(Snapshot, RestoreRefusesASecondTuningTickOfOneGeneration) {
  const CutSession cut = cut_session(sim::Policy::kCoda);
  const std::string same = repeat_event(cut.blob, simcore::kTagTuningTick);
  ASSERT_FALSE(same.empty());
  EXPECT_NE(refusal(cut, same).find("repeats a live entry"), std::string::npos);
  const std::string stale = edit_row(same, [](std::vector<std::string>* t) {
    if ((*t)[0] != "event" ||
        (*t)[2] != std::to_string(simcore::kTagTuningTick)) {
      return false;
    }
    (*t)[4] = std::to_string(std::stoull((*t)[4]) + 1000);
    return true;
  });
  ASSERT_FALSE(stale.empty());
  EXPECT_EQ(refusal(cut, stale), "");
}

// A manifest row whose kind no layer of the restored session owns: a kind
// outside the registry (the kind is a uint32 read from the file), or a
// CODA tick under a baseline policy. Re-posted, it would fire with no
// handler; restore refuses it instead.

// The refusal of `cut`'s blob with its first manifest entry of kind `from`
// turned into kind `to`.
std::string refusal_as_kind(const CutSession& cut, uint32_t from,
                            const std::string& to) {
  const std::string blob =
      set_token(cut.blob, "event", 2, to, 2, std::to_string(from));
  EXPECT_FALSE(blob.empty());
  return refusal(cut, blob);
}

TEST(Snapshot, RestoreRefusesAnEventOfKindZero) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  EXPECT_NE(refusal_as_kind(cut, simcore::kTagArrival, "0").find("kind 0"),
            std::string::npos);
}

TEST(Snapshot, RestoreRefusesAnEventOfKindOnePastTheLast) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  EXPECT_NE(refusal_as_kind(cut, simcore::kTagArrival, "10").find("kind 10"),
            std::string::npos);
}

TEST(Snapshot, RestoreRefusesAnEventOfTheLargestKind) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  EXPECT_NE(refusal_as_kind(cut, simcore::kTagArrival, "4294967295")
                .find("kind 4294967295"),
            std::string::npos);
}

TEST(Snapshot, RestoreRefusesAnEliminatorTickUnderFifo) {
  const CutSession cut = cut_session(sim::Policy::kFifo);
  EXPECT_NE(refusal_as_kind(cut, simcore::kTagMetricsTick,
                            std::to_string(simcore::kTagEliminatorTick))
                .find("manifest entry"),
            std::string::npos);
}

TEST(Snapshot, RestoreRefusesATuningTickUnderDrf) {
  const CutSession cut = cut_session(sim::Policy::kDrf);
  EXPECT_NE(refusal_as_kind(cut, simcore::kTagArrival,
                            std::to_string(simcore::kTagTuningTick))
                .find("manifest entry"),
            std::string::npos);
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
