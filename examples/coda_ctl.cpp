// coda_ctl: command-line client for a running codad.
//
//   coda_ctl ping    --socket /tmp/coda.sock
//   coda_ctl submit  --socket /tmp/coda.sock --kind cpu --cores 4 --work 1200
//   coda_ctl submit  --port 7070 --kind gpu --model Resnet50 --iters 5000
//   coda_ctl status  --socket /tmp/coda.sock --id 17
//   coda_ctl cluster --socket /tmp/coda.sock
//   coda_ctl metrics --socket /tmp/coda.sock
//   coda_ctl drain   --socket /tmp/coda.sock
//   coda_ctl snapshot --socket /tmp/coda.sock [--shard K]
//   coda_ctl restore-check --snapshot FILE.SNAP.3 [--journal FILE]
//   coda_ctl bench   --port 7070 --connections 8 --duration 5 [--rate 20000]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "flag_parse.h"
#include "perfmodel/dnn_model.h"
#include "service/client.h"
#include "service/restore.h"
#include "workload/trace_io.h"

using namespace coda;
using examples::FlagMap;
using examples::flag_bool;
using examples::flag_double;
using examples::flag_int;
using examples::flag_or;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: coda_ctl <verb> (--socket PATH | --port N) [flags]\n"
      "  ping | cluster | metrics | drain | shutdown | snapshot\n"
      "     [--shard K] targets engine shard K (default: server routing;\n"
      "     drain/shutdown without it fan out to every shard)\n"
      "     [--auth-token T] authenticates first (daemons with "
      "--auth-token)\n"
      "  snapshot: capture a deterministic state snapshot on the target\n"
      "     shard and truncate its journal (restart with codad --restore)\n"
      "  restore-check --snapshot FILE [--journal FILE]   (offline; no "
      "endpoint)\n"
      "     loads the snapshot (+ journal tail), rebuilds the session, and\n"
      "     prints the restore latency — verifies a snapshot before "
      "relying on it\n"
      "  status  --id N\n"
      "  submit  [--row CSV] | [--kind cpu|gpu ...]\n"
      "     cpu: --cores N --work CORE_SECONDS [--bw GBPS] [--llc MB]\n"
      "          [--user-facing 1]\n"
      "     gpu: --model NAME --iters N [--nodes N] [--gpus N] [--batch N]\n"
      "          (NAME exactly as the model table spells it, e.g. Resnet50)\n"
      "          [--cpus N]\n"
      "          [--hint-category-unknown 1] [--hint-pipelined 1]\n"
      "          [--hint-large-weights 1] [--hint-complex-prep 1]\n"
      "     both: [--checkpoint-interval SECONDS]\n"
      "          [--checkpoint-overhead SECONDS]\n"
      "  bench   --connections N --duration SECONDS [--rate CMDS_PER_SEC]\n"
      "          [--request LINE] [--pipeline DEPTH] [--shards N]\n"
      "     --pipeline D keeps D CID-tagged requests in flight per "
      "connection\n"
      "     --shards N round-robins SHARD 0..N-1 prefixes and prints a "
      "per-shard\n"
      "     breakdown plus a machine-readable 'bench-json:' line\n");
}

service::Endpoint make_endpoint(const FlagMap& flags) {
  service::Endpoint endpoint;
  endpoint.unix_socket_path = flag_or(flags, "socket", "");
  if (flags.count("port") > 0) {
    endpoint.tcp_port = flag_int(flags, "port", -1, 0);
  }
  if (endpoint.unix_socket_path.empty() && endpoint.tcp_port < 0) {
    std::fprintf(stderr, "need --socket PATH or --port N\n");
    usage();
    std::exit(2);
  }
  return endpoint;
}

// Builds the SUBMIT csv row. id 0 lets the daemon assign one;
// submit_time is ignored by the daemon (arrival is "now").
std::string build_submit_row(const FlagMap& flags) {
  if (flags.count("row") > 0) {
    return flags.at("row");
  }
  workload::JobSpec job;
  job.tenant =
      static_cast<cluster::TenantId>(flag_int(flags, "tenant", 0, 0));
  const std::string kind = flag_or(flags, "kind", "cpu");
  if (kind == "gpu") {
    job.kind = workload::JobKind::kGpuTraining;
    // The lookup trace and SUBMIT rows use, so a name this accepts is one
    // the daemon accepts.
    const auto model =
        workload::model_from_string(flag_or(flags, "model", "Resnet50"));
    if (!model.ok()) {
      std::fprintf(stderr, "%s; known models:", model.error().message.c_str());
      for (perfmodel::ModelId m : perfmodel::kAllModels) {
        std::fprintf(stderr, " %s", perfmodel::to_string(m));
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    job.model = *model;
    job.train_config.nodes = flag_int(flags, "nodes", 1, 1);
    job.train_config.gpus_per_node = flag_int(flags, "gpus", 1, 1);
    job.train_config.batch_size = flag_int(flags, "batch", 64, 1);
    job.iterations = flag_double(flags, "iters", 1000.0, 0.0);
    job.requested_cpus = flag_int(flags, "cpus", 2, 0);
    // Sec. V-B user hints: refine the allocator's N_start. The worst case
    // (not even the category known) is opt-in via --hint-category-unknown.
    job.hints.category_known =
        !flag_bool(flags, "hint-category-unknown", false);
    job.hints.pipelined = flag_bool(flags, "hint-pipelined", false);
    job.hints.large_weights = flag_bool(flags, "hint-large-weights", false);
    job.hints.complex_prep = flag_bool(flags, "hint-complex-prep", false);
  } else if (kind == "cpu") {
    job.kind = workload::JobKind::kCpu;
    job.cpu_cores = flag_int(flags, "cores", 2, 1);
    job.cpu_work_core_s = flag_double(flags, "work", 600.0, 0.0);
    job.mem_bw_gbps = flag_double(flags, "bw", 1.0, 0.0);
    job.llc_mb = flag_double(flags, "llc", 2.0, 0.0);
    job.user_facing = flag_bool(flags, "user-facing", false);
  } else {
    std::fprintf(stderr, "unknown --kind '%s' (cpu|gpu)\n", kind.c_str());
    std::exit(2);
  }
  job.checkpoint_interval_s =
      flag_double(flags, "checkpoint-interval", 0.0, 0.0);
  job.checkpoint_overhead_s =
      flag_double(flags, "checkpoint-overhead", 0.0, 0.0);
  if (job.checkpoint_overhead_s > 0.0 && !job.checkpointing()) {
    std::fprintf(stderr,
                 "--checkpoint-overhead needs --checkpoint-interval > 0\n");
    std::exit(2);
  }
  return workload::job_to_csv_row(job);
}

int print_response(const util::Result<service::Response>& response) {
  if (!response.ok()) {
    std::fprintf(stderr, "error: %s\n", response.error().message.c_str());
    return 1;
  }
  switch (response->kind) {
    case service::Response::Kind::kOk:
      std::printf("OK %s\n", response->payload.c_str());
      return 0;
    case service::Response::Kind::kBusy:
      std::printf("BUSY retry-after-ms=%d\n", response->retry_after_ms);
      return 3;
    case service::Response::Kind::kErr:
      std::fprintf(stderr, "ERR %s %s\n", util::to_string(response->code),
                   response->payload.c_str());
      return 1;
  }
  return 1;
}

// Offline snapshot validation: rebuild the session exactly as codad
// --restore would and report how long it took. No daemon involved.
int cmd_restore_check(const FlagMap& flags) {
  if (flags.count("snapshot") == 0) {
    std::fprintf(stderr, "restore-check needs --snapshot FILE\n");
    return 2;
  }
  const std::string snapshot_path = flags.at("snapshot");
  const std::string journal_path = flag_or(flags, "journal", "");
  const auto t0 = std::chrono::steady_clock::now();
  auto shard = service::restore_shard(snapshot_path, journal_path);
  const double restore_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  if (!shard.ok()) {
    std::fprintf(stderr, "restore-check FAILED: %s\n",
                 shard.error().message.c_str());
    return 1;
  }
  std::printf(
      "restore-check OK: seq=%llu vt=%.3f policy=%s jobs=%zu "
      "(base %zu + live %zu) running=%zu restore_ms=%.3f\n",
      static_cast<unsigned long long>(shard->snapshot_seq), shard->resume_vt,
      sim::to_string(shard->spec.policy), shard->sim.submitted,
      shard->base_jobs, shard->accepted(), shard->sim.engine->running_jobs(),
      restore_ms);
  return 0;
}

int cmd_bench(const service::Endpoint& endpoint, const FlagMap& flags) {
  service::BenchOptions options;
  options.connections = flag_int(flags, "connections", 4, 1);
  options.duration_s = flag_double(flags, "duration", 5.0, 0.0);
  options.rate = flag_double(flags, "rate", 0.0, 0.0);
  options.request_line = flag_or(flags, "request", options.request_line);
  options.pipeline = flag_int(flags, "pipeline", 1, 1);
  options.shards = flag_int(flags, "shards", 0, 0);
  options.auth_token = flag_or(flags, "auth-token", "");
  auto report = service::run_bench(endpoint, options);
  if (!report.ok()) {
    std::fprintf(stderr, "bench failed: %s\n",
                 report.error().message.c_str());
    return 1;
  }
  std::printf("bench: %zu sent, %zu ok, %zu busy, %zu errors in %.2fs "
              "(pipeline %d)\n",
              report->sent, report->ok, report->busy, report->errors,
              report->wall_s, options.pipeline);
  std::printf("throughput %.0f cmds/sec | latency p50 %.3fms p99 %.3fms "
              "max %.3fms\n",
              report->throughput, report->p50_ms, report->p99_ms,
              report->max_ms);
  for (size_t k = 0; k < report->shard_stats.size(); ++k) {
    const auto& s = report->shard_stats[k];
    std::printf("  shard %zu: %zu ok, %.0f cmds/sec, p50 %.3fms p99 %.3fms\n",
                k, s.ok, s.throughput, s.p50_ms, s.p99_ms);
  }
  // One-line machine-readable summary for scripts (run_benches.sh).
  std::printf("bench-json: {\"ok\": %zu, \"throughput\": %.1f, "
              "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"busy\": %zu, "
              "\"errors\": %zu}\n",
              report->ok, report->throughput, report->p50_ms, report->p99_ms,
              report->busy, report->errors);
  return report->errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string verb = argv[1];
  const auto flags = examples::parse_flag_pairs(argc, argv, 2, usage);

  // Offline verb: no endpoint, no connection.
  if (verb == "restore-check") {
    return cmd_restore_check(flags);
  }

  const service::Endpoint endpoint = make_endpoint(flags);

  if (verb == "bench") {
    return cmd_bench(endpoint, flags);
  }

  auto client = service::Client::connect(endpoint);
  if (!client.ok()) {
    std::fprintf(stderr, "cannot connect: %s\n",
                 client.error().message.c_str());
    return 1;
  }
  const std::string auth_token = flag_or(flags, "auth-token", "");
  if (!auth_token.empty()) {
    auto authed = client->auth(auth_token);
    if (!authed.ok() || !authed->ok()) {
      std::fprintf(stderr, "AUTH failed: %s\n",
                   authed.ok() ? authed->payload.c_str()
                               : authed.error().message.c_str());
      return 1;
    }
  }
  // Every other subcommand is a wire verb spelt in lower case: upper-cased,
  // it is the verb's name ('?' stands in for any other byte, so "PING"
  // names nothing). AUTH is the --auth-token flag, not a subcommand.
  std::string wire_name = verb;
  for (char& c : wire_name) {
    c = c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : '?';
  }
  const std::optional<service::Verb> wire = service::verb_named(wire_name);
  if (!wire.has_value() || *wire == service::Verb::kAuth) {
    usage();
    return 2;
  }
  std::string arg;
  if (*wire == service::Verb::kSubmit) {
    arg = build_submit_row(flags);
  } else if (*wire == service::Verb::kStatus) {
    if (flags.count("id") == 0) {
      std::fprintf(stderr, "status needs --id N\n");
      return 2;
    }
    arg = std::to_string(flag_int(flags, "id", 0, 0));
  }
  // `--shard K` pins the command to engine shard K via the wire prefix;
  // without it the server applies its default routing (and fans DRAIN /
  // SHUTDOWN out to every shard).
  const int shard =
      flags.count("shard") > 0 ? flag_int(flags, "shard", 0, 0) : -1;
  return print_response(client->call(*wire, arg, shard));
}
