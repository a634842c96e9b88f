// coda_perfbench: the repository benchmark. One run = one workload, one
// seed. A workload is a seeded job stream on a cluster shape. An untraced
// run replays the whole stream offline under FIFO, DRF and CODA and repeats
// those replays until --seconds is used up. Each replay is timed in windows
// of simulated time; replay_s.<policy> sums each window's fastest time over
// the repetitions, and setup_s is a median. The first repetition also checks
// the outputs, including a snapshot round trip at 70% of the CODA replay.
//
// --trace 1 is the separate traced run. It sends the stream's head live to
// an in-process codad server (serve session) and times the bytes it sent
// through the service layer, then runs one replay iteration under span
// tracing and one without, and reports the per-layer metrics. Its reports
// must be byte-identical to the untraced iteration's. SUBMIT latency and
// snapshot/restore latency live here and not among the end-to-end metrics:
// on a shared virtual machine they swing more between identical runs than
// any usable regression bound (see perfbench/README.md).
//
// The last line of stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a provenance line. Usage: see perfbench/run.py, which builds
// this binary and passes the recorded digests.
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "replay_stage.h"
#include "serve_stage.h"
#include "service/journal.h"
#include "sim/report_io.h"
#include "tracer.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace perfbench {
namespace {

constexpr int kMinIterations = 3;
// Set-up is a fraction of a second, so each repetition times it this many
// more times on its own to give setup_s a median over more samples.
constexpr int kExtraSetups = 2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
  std::string source_rev = "unknown";
  DigestMap expected;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "coda_perfbench: %s\n"
               "usage: coda_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE]\n"
               "       [--expect POLICY=DIGEST]... [--source-rev REV]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--source-rev") {
      a.source_rev = v;
    } else if (flag == "--expect") {
      const size_t eq = v.find('=');
      if (eq == std::string::npos) {
        usage("--expect wants POLICY=DIGEST");
      }
      a.expected[v.substr(0, eq)] = v.substr(eq + 1);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (find_workload(a.workload) == nullptr || !have_seed || a.seconds <= 0) {
    usage("need a known --workload, --seed and --seconds > 0");
  }
  return a;
}

// The benchmark measures the default program only: every runtime toggle
// that switches the engine or the runner to another code path is refused.
void refuse_toggles() {
  for (const char* name : {"CODA_ENGINE_THREADS", "CODA_NO_PLACEMENT_INDEX",
                           "CODA_FAST", "CODA_JOBS", "CODA_NO_CACHE"}) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "coda_perfbench: refusing to run with %s set\n",
                   name);
      std::exit(2);
    }
  }
}

// Both output checks must reject bad input: a wrong digest and a torn
// journal. Uses a small trace so it costs well under a second.
void self_test(const std::string& work_dir, Result* result) {
  coda::workload::TraceConfig cfg;
  cfg.seed = 7;
  cfg.duration_s = 6.0 * 3600.0;
  cfg.cpu_jobs = 300;
  cfg.gpu_jobs = 150;
  const auto trace = coda::workload::TraceGenerator(cfg).generate();

  const std::string report = coda::sim::serialize_report(
      coda::sim::run_experiment(coda::sim::Policy::kFifo, trace));
  const std::string digest = fnv1a_hex(report);
  std::string wrong = digest;
  wrong[0] = wrong[0] == '0' ? '1' : '0';
  result->op(digest_ok({{"FIFO", digest}}, "FIFO", digest) &&
                 !digest_ok({{"FIFO", wrong}}, "FIFO", digest),
             "self-test: digest check accepts the right digest and rejects "
             "a wrong one");

  coda::service::SessionSpec session;
  session.config.horizon_s = cfg.duration_s;
  const std::string path = work_dir + "/selftest.journal";
  {
    auto writer = coda::service::JournalWriter::open(path, session);
    if (!writer.ok()) {
      result->op(false, "self-test: open journal");
      return;
    }
    bool ok = true;
    for (const auto& spec : trace) {
      ok = writer
               ->append_submit(spec.submit_time, spec.id,
                               coda::workload::job_to_csv_row(spec))
               .ok() &&
           ok;
    }
    result->op(ok && writer->flush().ok(), "self-test: journal write");
  }
  auto full = coda::service::replay_journal_file(path);
  const std::string expected =
      full.ok() ? coda::sim::serialize_report(*full) : std::string();
  const bool accepts = full.ok() && journal_matches(path, expected);
  // Tear the last entry, as a crash mid group commit would.
  std::FILE* f = std::fopen(path.c_str(), "r+");
  bool rejects = false;
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    rejects = ::truncate(path.c_str(), size - 40) == 0 &&
              !journal_matches(path, expected);
  }
  std::remove(path.c_str());
  result->op(accepts && rejects,
             "self-test: journal check accepts the intact journal and "
             "rejects a truncated one");
}

void print_provenance(const Args& a) {
  const Workload* w = find_workload(a.workload);
  std::printf(
      "PERFBENCH_PROVENANCE {\"source_rev\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"nproc\": %ld, \"hardware_concurrency\": %u, "
      "\"workload\": \"%s\", \"trace\": \"%s\", \"seed\": %llu, "
      "\"traced\": %s, "
      "\"seconds\": %g, \"nodes\": %d, \"serve_shards\": %d, "
      "\"serve_speedup\": %.17g, \"serve_window_s\": %g, "
      "\"journal_flush\": \"group commit, fflush, no fsync\", "
      "\"engine\": \"serial, placement index on\"}\n",
      a.source_rev.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__,
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      w->name.c_str(), w->trace_desc, static_cast<unsigned long long>(a.seed),
      a.trace ? "true" : "false", a.seconds, w->nodes, kServeShards,
      w->serve_horizon_s / kServeWindowS, kServeWindowS);
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()));
  bool first = true;
  for (const auto& [name, m] : r.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.first, m.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

// Per timed window of a replay, the fastest time any repetition took for
// it, summed over the windows. Every repetition replays the same trace in
// the same windows, so window k is the same work in each; a burst of load
// from other tenants of the host slows the windows of the repetition it
// overlaps, and the other repetitions cover them.
double fastest_windows_s(const std::vector<std::vector<double>>& reps) {
  std::vector<double> fastest = reps.front();
  for (const auto& rep : reps) {
    for (size_t k = 0; k < fastest.size(); ++k) {
      fastest[k] = std::min(fastest[k], rep[k]);
    }
  }
  return std::accumulate(fastest.begin(), fastest.end(), 0.0);
}

void untraced_run(const Args& a, const Workload& w, Result* r) {
  const auto start = Clock::now();
  std::vector<double> setup;
  // Per policy, every repetition's window times.
  std::vector<std::vector<double>> windows[3];
  std::string digests[3];
  double slowest = 0.0;
  while (windows[0].size() < kMinIterations ||
         seconds_since(start) + slowest < a.seconds) {
    const auto t0 = Clock::now();
    // Outputs are checked on the first repetition; the rest only time.
    const bool first = windows[0].empty();
    const ReplayIteration it =
        run_replays(w, a.seed, a.expected, nullptr,
                    first ? Checks::kRun : Checks::kSkip, r);
    if (first) {
      for (size_t p = 0; p < 3; ++p) {
        digests[p] = it.runs[p].digest;
      }
    }
    setup.push_back(it.setup_s());
    for (int k = 0; k < kExtraSetups; ++k) {
      setup.push_back(time_setup(w, a.seed));
    }
    slowest = std::max(slowest, seconds_since(t0));
    std::printf("PERFBENCH_ITERATION %zu setup_s=%.4f fifo_s=%.4f drf_s=%.4f "
                "coda_s=%.4f\n",
                windows[0].size(), it.setup_s(), it.runs[0].wall_s,
                it.runs[1].wall_s, it.runs[2].wall_s);
    std::fflush(stdout);
    for (size_t p = 0; p < 3; ++p) {
      windows[p].push_back(it.runs[p].segments_s);
    }
  }
  std::printf("PERFBENCH_DIGESTS {\"FIFO\": \"%s\", \"DRF\": \"%s\", "
              "\"CODA\": \"%s\"} iterations=%zu\n",
              digests[0].c_str(), digests[1].c_str(), digests[2].c_str(),
              windows[0].size());
  r->metric("setup_s", median(setup), "s");
  r->metric("replay_s.fifo", fastest_windows_s(windows[0]), "s");
  r->metric("replay_s.drf", fastest_windows_s(windows[1]), "s");
  r->metric("replay_s.coda", fastest_windows_s(windows[2]), "s");
  r->metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void traced_run(const Args& a, const Workload& w, Result* r) {
  self_test(a.work_dir, r);

  ServeOutcome serve;
  {
    const auto trace = w.make_trace(a.seed);
    serve = run_serve(w, trace, a.work_dir, r);
  }
  service_layer_replay(serve, a.work_dir, r);
  r->metric("submit_ack_p50_ms", percentile(serve.submit_ms, 0.5), "ms");
  r->metric("submit_ack_p99_ms", percentile(serve.submit_ms, 0.99), "ms");
  r->metric("status_p99_ms", percentile(serve.status_ms, 0.99), "ms");
  r->metric("serve.submit_samples", static_cast<double>(serve.submit_ms.size()),
            "count");
  r->metric("serve.status_samples", static_cast<double>(serve.status_ms.size()),
            "count");
  r->metric("service.commands_routed",
            static_cast<double>(serve.counters.commands_routed), "count");
  r->metric("service.busy_rejections",
            static_cast<double>(serve.counters.busy_rejections), "count");
  r->metric("service.conn_dropped",
            static_cast<double>(serve.counters.conn_dropped), "count");
  r->metric("service.journal_bytes_per_submit",
            static_cast<double>(serve.journal_entry_bytes) /
                static_cast<double>(std::max<size_t>(serve.submit_ms.size(), 1)),
            "B");
  r->metric("service.drain_ms", serve.drain_ms, "ms");
  r->metric("gen.lag_p99_ms", percentile(serve.lag_ms, 0.99), "ms");
  serve = ServeOutcome();

  Tracer tracer;
  const ReplayIteration traced = run_replays(
      w, a.seed, a.expected, &tracer, Checks::kRunAndKeepReports, r);
  const ReplayIteration plain = run_replays(
      w, a.seed, a.expected, nullptr, Checks::kRunAndKeepReports, r);

  double traced_wall = 0.0, plain_wall = 0.0;
  uint64_t events = 0, allocs = 0, probes = 0, hits = 0, misses = 0;
  coda::sim::ClusterEngine::EngineStats stats;
  for (size_t p = 0; p < 3; ++p) {
    const ReplayRun& t = traced.runs[p];
    const ReplayRun& u = plain.runs[p];
    r->op(t.report == u.report && !u.report.empty(),
          std::string(coda::sim::to_string(u.policy)) +
              " traced report is byte-identical to the untraced one");
    traced_wall += t.wall_s;
    plain_wall += u.wall_s;
    events += u.events;
    allocs += u.allocs;
    probes += u.index_probes;
    hits += u.cache.hits;
    misses += u.cache.misses;
    stats.node_recomputes += u.stats.node_recomputes;
    stats.rate_updates += u.stats.rate_updates;
    stats.reschedules_skipped += u.stats.reschedules_skipped;
  }
  // The windowed replays must give the program's own reports.
  {
    const auto trace = w.make_trace(a.seed);
    for (const ReplayRun& u : plain.runs) {
      r->op(reference_report(u.policy, w, trace) == u.report,
            std::string(coda::sim::to_string(u.policy)) +
                " report is byte-identical to sim::run_experiment's");
    }
  }
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  r->metric("simcore.events", count(events), "count");
  r->metric("simcore.events_per_s", count(events) / plain_wall, "1/s");
  r->metric("sim.self_s", tracer.replay_outside_probes_s(), "s");
  r->metric("sim.node_recomputes", count(stats.node_recomputes), "count");
  r->metric("sim.rate_updates", count(stats.rate_updates), "count");
  r->metric("sim.reschedules_skipped", count(stats.reschedules_skipped),
            "count");
  r->metric("sim.allocs_per_event", count(allocs) / count(events), "count");
  const std::pair<const char*, SpanKind> spans[] = {
      {"sim.start_job", kSimStartJob},
      {"sim.resize_job", kSimResizeJob},
      {"sim.preempt_job", kSimPreemptJob},
      {"telemetry.pressure_screen", kTelPressureScreen},
      {"telemetry.gpu_util", kTelGpuUtil},
      {"sched.kick", kSchedKick},
  };
  for (const auto& [name, kind] : spans) {
    r->metric(std::string(name) + "_s", tracer.total_s(kind), "s");
    r->metric(std::string(name) + "_calls", count(tracer.calls(kind)),
              "count");
  }
  r->metric("telemetry.sample_s",
            tracer.total_s(kTelSample) + tracer.total_s(kTelPressure), "s");
  r->metric("telemetry.sample_calls",
            count(tracer.calls(kTelSample) + tracer.calls(kTelPressure)),
            "count");
  r->metric("sched.kick_self_s", tracer.self_s(kSchedKick), "s");
  r->metric("sched.submit_s", tracer.total_s(kSchedSubmit), "s");
  r->metric("sched.finish_s",
            tracer.total_s(kSchedFinished) + tracer.total_s(kSchedEvicted),
            "s");
  r->metric("sched.metrics_probe_s",
            tracer.total_s(kSchedPendingJobs) + tracer.total_s(kSchedPendingGpu) +
                tracer.total_s(kSchedMinDemand) +
                tracer.total_s(kSchedReclaimable),
            "s");
  r->metric("cluster.index_probes", count(probes), "count");
  r->metric("perfmodel.evals", count(hits + misses), "count");
  r->metric("perfmodel.hit_ratio",
            hits + misses > 0 ? count(hits) / count(hits + misses) : 0.0,
            "ratio");
  const ReplayRun& coda_run = plain.runs[2];
  r->metric("state.snapshot_bytes", count(coda_run.snapshot_bytes), "B");
  r->metric("state.capture_ms", coda_run.capture_ms, "ms");
  r->metric("state.parse_ms", coda_run.parse_ms, "ms");
  r->metric("state.restore_ms", coda_run.restore_ms, "ms");
  r->metric("trace.overhead", traced_wall / plain_wall, "ratio");

  if (!a.trace_out.empty()) {
    r->op(tracer.write(a.trace_out), "write spans to " + a.trace_out);
    std::printf("PERFBENCH_SPANS %s (%llu recorded)\n", a.trace_out.c_str(),
                static_cast<unsigned long long>(tracer.spans_recorded()));
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGPIPE, SIG_IGN);
  refuse_toggles();
  const Args args = parse_args(argc, argv);
  Result result;
  // A failed check is reported in the result object itself.
  print_provenance(args);
  std::fflush(stdout);
  const Workload& w = *find_workload(args.workload);
  if (args.trace) {
    traced_run(args, w, &result);
  } else {
    untraced_run(args, w, &result);
  }
  print_result(result);
  return 0;
}
