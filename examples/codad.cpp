// codad: the live cluster-controller daemon. Runs a sim::ClusterEngine in
// paced virtual time (--speedup sim-seconds per wall-second) behind a
// line-protocol listener, journals every accepted command, and writes the
// final ExperimentReport at drain.
//
//   codad --days 0.1 --policy coda --socket /tmp/coda.sock
//         --journal /tmp/coda.journal --speedup 3600
//   codad --trace trace.csv --port 7070 --journal session.journal
//   codad --days 0.1 --port 0 --retry 1 --mtbf 14400 --outage-s 600
//         --coda-multi-array 0 --journal session.journal
//
// Every experiment knob set here lands in the v2 journal header, so
// non-default sessions replay faithfully. Drive it with coda_ctl; replay
// the session offline with
//   coda_cli replay --journal /tmp/coda.journal
//       --expect-report /tmp/coda.journal.report
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "flag_parse.h"
#include "service/server.h"
#include "sim/experiment.h"
#include "util/env.h"
#include "util/logging.h"
#include "workload/trace_io.h"

using namespace coda;
using examples::FlagMap;
using examples::flag_bool;
using examples::flag_double;
using examples::flag_int;
using examples::flag_or;
using examples::flag_u64;

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

void usage() {
  std::fprintf(
      stderr,
      "usage: codad [--trace FILE | --days D --seed S] [--policy "
      "fifo|drf|coda]\n"
      "             [--nodes N] [--horizon SECONDS] [--speedup "
      "SIM_S_PER_WALL_S]\n"
      "             (--socket PATH | --port N) [--journal FILE] "
      "[--report FILE]\n"
      "             [--shards N] [--auth-token T] [--journal-fsync 0|1]\n"
      "             [--restore 0|1] [experiment knobs]\n"
      "  --speedup 3600 paces one sim-hour per wall-second; <= 0 runs "
      "as fast as possible\n"
      "  --port 0 binds an ephemeral port (printed on startup)\n"
      "  --shards N runs N independent engine shards (default "
      "CODA_SERVE_SHARDS or 1);\n"
      "    shard k journals to JOURNAL.shard<k> when N > 1\n"
      "  --auth-token T (or CODA_SERVE_TOKEN) requires AUTH T before "
      "any verb but PING\n"
      "  --journal-fsync 1 fsyncs each journal group commit before "
      "acknowledging\n"
      "  --restore 1 resumes each shard from its latest "
      "JOURNAL[.shard<k>].SNAP.<seq>\n"
      "    snapshot plus the journal tail (take one live with: coda_ctl "
      "snapshot),\n"
      "    else from the whole journal replayed from t=0; only a shard with "
      "neither\n"
      "    file starts fresh. Files that fail to load make codad exit 1 and "
      "stay as they are;\n"
      "    after a crash inside SNAPSHOT, removing only the journal resumes "
      "from the snapshot\n"
      "  --snapshot-every-sim-hours H / --snapshot-journal-mb M (or "
      "CODA_SERVE_SNAP_SIM_HOURS /\n"
      "    CODA_SERVE_SNAP_JOURNAL_MB) auto-snapshot + truncate each "
      "shard's journal between\n"
      "    event batches every H sim-hours or once it exceeds M MB "
      "(0 disables)\n"
      "experiment knobs (all journaled in the v2 header):\n"
      "  engine:  --noise SIGMA --noise-seed N --metrics-period S\n"
      "           --frag-min-cpus N --mba-fraction F --cpu-only-nodes N\n"
      "           --record-events 0|1 --incremental 0|1 --drain-slack S\n"
      "  retry:   --retry 0|1 --retry-backoff-base S --retry-backoff-max S\n"
      "           --retry-max N\n"
      "  failure: --mtbf S (0 disables) --outage-s S --failure-seed N\n"
      "  coda:    --coda-multi-array 0|1 --coda-cpu-preemption 0|1\n"
      "           --coda-eliminator 0|1 --coda-release-when-calm 0|1\n"
      "           --coda-reserved-cores N --coda-four-gpu-frac F\n"
      "           --coda-static-bw-cap GBPS\n"
      "           --coda-search-mode hillclimb|stepwise|oneshot\n");
}

// Unlike coda_ctl's verb-specific flag sets, codad has one flat namespace —
// reject unknown flags so `--speedpu 3600` cannot silently run defaults.
const std::set<std::string> kKnownFlags = {
    "trace", "days", "seed", "policy", "nodes", "horizon", "speedup",
    "socket", "port", "journal", "report", "shards",
    "auth-token", "journal-fsync", "restore",
    "snapshot-every-sim-hours", "snapshot-journal-mb",
    "noise", "noise-seed", "metrics-period", "frag-min-cpus",
    "mba-fraction", "cpu-only-nodes", "record-events", "incremental",
    "drain-slack",
    "retry", "retry-backoff-base", "retry-backoff-max", "retry-max",
    "mtbf", "outage-s", "failure-seed",
    "coda-multi-array", "coda-cpu-preemption", "coda-eliminator",
    "coda-release-when-calm", "coda-reserved-cores", "coda-four-gpu-frac",
    "coda-static-bw-cap", "coda-search-mode",
};

sim::Policy parse_policy(const std::string& name) {
  if (name == "fifo") {
    return sim::Policy::kFifo;
  }
  if (name == "drf") {
    return sim::Policy::kDrf;
  }
  if (name == "coda") {
    return sim::Policy::kCoda;
  }
  std::fprintf(stderr, "unknown policy '%s' (fifo|drf|coda)\n", name.c_str());
  std::exit(2);
}

// The journal stores trace *text*, so the base trace must exist as text
// before the engine ever parses it: a file is read verbatim, a synthetic
// trace is canonicalized through trace_to_csv first.
std::string make_base_trace_csv(const FlagMap& flags) {
  if (flags.count("trace") > 0) {
    std::FILE* f = std::fopen(flags.at("trace").c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open trace %s\n",
                   flags.at("trace").c_str());
      std::exit(1);
    }
    std::string text;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
    return text;
  }
  const double days = flag_double(flags, "days", 0.1, 1e-6);
  auto cfg = sim::standard_week_trace(flag_u64(flags, "seed", 42));
  cfg.duration_s = days * 86400.0;
  cfg.cpu_jobs = static_cast<int>(2500 * days);
  cfg.gpu_jobs = static_cast<int>(1250 * days);
  const auto trace = workload::TraceGenerator(cfg).generate();
  return workload::trace_to_csv(trace);
}

core::SearchMode parse_search_mode(const std::string& name) {
  if (name == "hillclimb") {
    return core::SearchMode::kHillClimb;
  }
  if (name == "stepwise") {
    return core::SearchMode::kStepwise;
  }
  if (name == "oneshot") {
    return core::SearchMode::kOneShot;
  }
  std::fprintf(stderr,
               "unknown --coda-search-mode '%s' "
               "(hillclimb|stepwise|oneshot)\n",
               name.c_str());
  std::exit(2);
}

// Every experiment knob a flag can set. All of it is recorded in the v2
// journal header, which is what makes these sessions replayable.
void apply_experiment_flags(const FlagMap& flags,
                            sim::ExperimentConfig* config) {
  auto& engine = config->engine;
  engine.util_noise_stddev = flag_double(flags, "noise", 0.0, 0.0);
  engine.noise_seed = flag_u64(flags, "noise-seed", engine.noise_seed);
  engine.metrics_period_s =
      flag_double(flags, "metrics-period", engine.metrics_period_s, 1e-3);
  engine.frag_min_cpus =
      flag_int(flags, "frag-min-cpus", engine.frag_min_cpus, 0);
  engine.cluster.mba_fraction =
      flag_double(flags, "mba-fraction", engine.cluster.mba_fraction, 0.0);
  engine.cluster.cpu_only_node_count =
      flag_int(flags, "cpu-only-nodes", 0, 0);
  engine.record_events = flag_bool(flags, "record-events", false);
  engine.incremental_recompute = flag_bool(flags, "incremental", true);
  config->drain_slack_s =
      flag_double(flags, "drain-slack", config->drain_slack_s, 0.0);

  auto& retry = config->retry;
  retry.enabled = flag_bool(flags, "retry", retry.enabled);
  retry.backoff_base_s =
      flag_double(flags, "retry-backoff-base", retry.backoff_base_s, 0.0);
  retry.backoff_max_s =
      flag_double(flags, "retry-backoff-max", retry.backoff_max_s, 0.0);
  retry.max_retries = flag_int(flags, "retry-max", retry.max_retries, 0);

  auto& failures = config->failures;
  failures.node_mtbf_s = flag_double(flags, "mtbf", 0.0, 0.0);
  failures.outage_s = flag_double(flags, "outage-s", failures.outage_s, 0.0);
  failures.seed = flag_u64(flags, "failure-seed", failures.seed);

  auto& coda = config->coda;
  coda.multi_array_enabled =
      flag_bool(flags, "coda-multi-array", coda.multi_array_enabled);
  coda.cpu_preemption_enabled =
      flag_bool(flags, "coda-cpu-preemption", coda.cpu_preemption_enabled);
  coda.eliminator.enabled =
      flag_bool(flags, "coda-eliminator", coda.eliminator.enabled);
  coda.eliminator.release_when_calm = flag_bool(
      flags, "coda-release-when-calm", coda.eliminator.release_when_calm);
  coda.reserved_cores_per_node =
      flag_int(flags, "coda-reserved-cores", coda.reserved_cores_per_node, 0);
  coda.four_gpu_node_fraction = flag_double(
      flags, "coda-four-gpu-frac", coda.four_gpu_node_fraction, 0.0);
  coda.static_bw_cap_gbps =
      flag_double(flags, "coda-static-bw-cap", coda.static_bw_cap_gbps, 0.0);
  if (flags.count("coda-search-mode") > 0) {
    coda.allocator.search_mode =
        parse_search_mode(flags.at("coda-search-mode"));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = examples::parse_flag_pairs(argc, argv, 1, usage);
  for (const auto& [key, value] : flags) {
    if (kKnownFlags.count(key) == 0) {
      std::fprintf(stderr, "unknown flag '--%s'\n", key.c_str());
      usage();
      return 2;
    }
  }
  if (flags.count("socket") == 0 && flags.count("port") == 0) {
    std::fprintf(stderr, "need --socket PATH or --port N\n");
    usage();
    return 2;
  }

  service::ServerConfig config;
  config.session.policy = parse_policy(flag_or(flags, "policy", "coda"));
  config.session.config.engine.cluster.node_count =
      flag_int(flags, "nodes", 80, 1);
  config.session.speedup = flag_double(flags, "speedup", 3600.0);
  config.session.base_trace_csv = make_base_trace_csv(flags);
  apply_experiment_flags(flags, &config.session.config);
  config.journal_path = flag_or(flags, "journal", "");
  config.report_path = flag_or(flags, "report", "");
  config.unix_socket_path = flag_or(flags, "socket", "");
  const char* env_token = std::getenv("CODA_SERVE_TOKEN");
  config.auth_token =
      flag_or(flags, "auth-token", env_token != nullptr ? env_token : "");
  config.journal_fsync = flag_bool(flags, "journal-fsync", false);
  config.restore = flag_bool(flags, "restore", false);
  if (config.restore && config.journal_path.empty()) {
    std::fprintf(stderr, "--restore requires --journal\n");
    return 2;
  }
  // Auto-snapshot triggers: serving-layer knobs, NOT experiment config —
  // when a shard compacts its journal never changes results, so they belong
  // in neither the v2 header nor the report cache key.
  config.snapshot_every_sim_hours = flag_double(
      flags, "snapshot-every-sim-hours",
      util::env_double("CODA_SERVE_SNAP_SIM_HOURS", 0.0, 0.0), 0.0);
  config.snapshot_journal_mb = flag_double(
      flags, "snapshot-journal-mb",
      util::env_double("CODA_SERVE_SNAP_JOURNAL_MB", 0.0, 0.0), 0.0);
  if ((config.snapshot_every_sim_hours > 0.0 ||
       config.snapshot_journal_mb > 0.0) &&
      config.journal_path.empty()) {
    std::fprintf(stderr, "--snapshot-every-sim-hours/--snapshot-journal-mb "
                         "require --journal\n");
    return 2;
  }
  if (flags.count("port") > 0) {
    config.tcp_port = flag_int(flags, "port", -1, 0);
  }
  config.limits = service::ServiceLimits::from_env();
  if (flags.count("shards") > 0) {
    config.limits.shards = flag_int(flags, "shards", 1, 1);
  }

  // Resolve the horizon the same way run_experiment does (max submit time)
  // so live and replay agree on the exact stopping point; a daemon cannot
  // defer this because SUBMITs arrive after start.
  double horizon = flag_double(flags, "horizon", 0.0, 0.0);
  if (horizon <= 0.0) {
    auto parsed = workload::trace_from_csv(config.session.base_trace_csv);
    if (!parsed.ok()) {
      std::fprintf(stderr, "invalid base trace: %s\n",
                   parsed.error().message.c_str());
      return 1;
    }
    for (const auto& spec : *parsed) {
      horizon = std::max(horizon, spec.submit_time);
    }
  }
  if (horizon <= 0.0) {
    std::fprintf(stderr,
                 "cannot resolve a horizon: empty trace and no --horizon\n");
    return 2;
  }
  config.session.config.horizon_s = horizon;

  service::Server server(std::move(config));
  if (auto status = server.start(); !status.ok()) {
    std::fprintf(stderr, "codad: %s\n", status.error().message.c_str());
    return 1;
  }
  if (server.tcp_port() >= 0) {
    std::printf("codad listening on 127.0.0.1:%d\n", server.tcp_port());
  } else {
    std::printf("codad listening on %s\n", flag_or(flags, "socket", "").c_str());
  }
  std::printf("codad horizon %.0f sim-seconds, speedup %.0fx, %d shard%s\n",
              horizon, flag_double(flags, "speedup", 3600.0),
              server.shard_count(), server.shard_count() == 1 ? "" : "s");
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  // Signal handlers can only set a flag; a watcher thread translates it
  // into a graceful drain + shutdown.
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    while (!done.load(std::memory_order_relaxed)) {
      if (g_signal != 0) {
        CODA_LOG_INFO("signal %d: draining and shutting down",
                      static_cast<int>(g_signal));
        server.request_shutdown();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  server.wait();
  done.store(true, std::memory_order_relaxed);
  watcher.join();
  std::printf("codad: session %s\n",
              server.drained() ? "drained cleanly" : "stopped before drain");
  return 0;
}
