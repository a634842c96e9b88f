// coda_cli: a command-line front end for the whole library — the tool a
// downstream user drives without writing C++.
//
//   coda_cli generate --days 2 --seed 42 --out trace.csv
//   coda_cli replay   --trace trace.csv --policy coda --csv-dir results/
//   coda_cli inspect  --trace trace.csv
//   coda_cli sweep    --days 1 --policy coda --nodes 40,60,80,100
//   coda_cli models
//
// Subcommands:
//   generate  synthesize a paper-calibrated trace and write it to CSV
//   replay    replay a trace (CSV or synthetic) under fifo/drf/coda
//   inspect   print a trace's marginals against the paper's
//   sweep     capacity planning: replay at several cluster sizes
//   models    print the Table-I model zoo characterization
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "flag_parse.h"
#include "perfmodel/characterization.h"
#include "perfmodel/train_perf.h"
#include "service/journal.h"
#include "service/restore.h"
#include "sim/experiment.h"
#include "sim/report_io.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/trace_io.h"

using namespace coda;
using examples::FlagMap;
using examples::flag_double;
using examples::flag_int;
using examples::flag_or;
using examples::flag_u64;

namespace {

void usage();

std::vector<workload::JobSpec> make_or_load_trace(const FlagMap& flags) {
  if (flags.count("trace") > 0) {
    auto loaded = workload::load_trace(flags.at("trace"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load trace: %s\n",
                   loaded.error().message.c_str());
      std::exit(1);
    }
    return std::move(loaded).value();
  }
  const double days = flag_double(flags, "days", 1.0, 1e-6);
  auto cfg = sim::standard_week_trace(flag_u64(flags, "seed", 42));
  cfg.duration_s = days * 86400.0;
  cfg.cpu_jobs = static_cast<int>(2500 * days);
  cfg.gpu_jobs = static_cast<int>(1250 * days);
  return workload::TraceGenerator(cfg).generate();
}

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

int cmd_generate(const std::map<std::string, std::string>& flags) {
  const auto trace = make_or_load_trace(flags);
  const std::string out = flag_or(flags, "out", "trace.csv");
  if (auto status = workload::save_trace(out, trace); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 1;
  }
  std::printf("wrote %zu jobs to %s\n", trace.size(), out.c_str());
  return 0;
}

int cmd_inspect(const std::map<std::string, std::string>& flags) {
  const auto trace = make_or_load_trace(flags);
  const auto s = workload::TraceGenerator::summarize(trace);
  util::Table table("trace marginals vs paper");
  table.set_header({"marginal", "paper", "this trace"});
  table.add_row({"CPU : GPU jobs", "75000 : 25000 per month",
                 util::strfmt("%d : %d", s.cpu_jobs, s.gpu_jobs)});
  table.add_row({"requests <= 2 cores/GPU", "76.1%",
                 util::format_percent(s.frac_gpu_req_1_2_cores)});
  table.add_row({"requests > 10 cores", "15.3%",
                 util::format_percent(s.frac_gpu_req_gt10_cores)});
  table.add_row({"training jobs > 1 h", "68.5%",
                 util::format_percent(s.frac_gpu_runtime_gt_1h)});
  table.add_row({"training jobs > 2 h", "39.6%",
                 util::format_percent(s.frac_gpu_runtime_gt_2h)});
  table.add_row({"bandwidth-heavy CPU jobs", "0.5%",
                 util::format_percent(s.frac_heavy_bw_cpu)});
  table.add_row({"multi-node training jobs", "-",
                 util::format_percent(s.frac_gpu_multi_node)});
  table.add_row({"user-facing inference CPU jobs", "-",
                 util::format_percent(s.frac_user_facing_cpu)});
  table.print(std::cout);
  return 0;
}

// Re-executes a codad session offline and (optionally) checks the
// resulting report byte-for-byte against the report the daemon wrote.
// Two forms: --journal FILE replays the whole session from virtual time
// zero; --snapshot FILE [--journal FILE] restores the snapshot and runs
// only the remainder (plus the truncated journal's tail) — same report,
// far less work.
int cmd_replay_journal(const std::map<std::string, std::string>& flags) {
  const bool from_snapshot = flags.count("snapshot") > 0;
  const std::string path =
      from_snapshot ? flags.at("snapshot") : flags.at("journal");
  auto report =
      from_snapshot
          ? service::replay_from_snapshot(path, flag_or(flags, "journal", ""))
          : service::replay_journal_file(path);
  if (!report.ok()) {
    std::fprintf(stderr, "%s replay failed: %s\n",
                 from_snapshot ? "snapshot" : "journal",
                 report.error().message.c_str());
    return 1;
  }
  const std::string serialized = sim::serialize_report(*report);
  if (flags.count("expect-report") > 0) {
    const std::string expect_path = flags.at("expect-report");
    std::FILE* f = std::fopen(expect_path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", expect_path.c_str());
      return 1;
    }
    std::string expected;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      expected.append(buf, n);
    }
    std::fclose(f);
    if (expected != serialized) {
      std::fprintf(stderr,
                   "MISMATCH: replay of %s (%zu bytes) differs from %s "
                   "(%zu bytes)\n",
                   path.c_str(), serialized.size(), expect_path.c_str(),
                   expected.size());
      return 1;
    }
    std::printf("replay of %s matches %s byte-for-byte (%zu bytes)\n",
                path.c_str(), expect_path.c_str(), serialized.size());
  }
  if (flags.count("out") > 0) {
    std::FILE* f = std::fopen(flags.at("out").c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.at("out").c_str());
      return 1;
    }
    std::fwrite(serialized.data(), 1, serialized.size(), f);
    std::fclose(f);
  }
  std::printf("%s %s: %zu submitted, %zu completed, gpu util %s\n",
              from_snapshot ? "snapshot" : "journal", path.c_str(),
              report->submitted, report->completed,
              util::format_percent(report->gpu_util_active).c_str());
  return 0;
}

int cmd_replay(const std::map<std::string, std::string>& flags) {
  if (flags.count("journal") > 0 || flags.count("snapshot") > 0) {
    return cmd_replay_journal(flags);
  }
  const auto trace = make_or_load_trace(flags);
  const auto policy = parse_policy(flag_or(flags, "policy", "coda"));
  sim::ExperimentConfig config;
  config.engine.cluster.node_count = flag_int(flags, "nodes", 80, 1);
  config.engine.util_noise_stddev = flag_double(flags, "noise", 0.0, 0.0);
  const auto report = sim::run_experiment(policy, trace, config);

  util::Table table(util::strfmt("replay | %s on %d nodes",
                                 report.scheduler.c_str(),
                                 config.engine.cluster.node_count));
  table.set_header({"metric", "value"});
  table.add_row({"completed",
                 util::strfmt("%zu/%zu", report.completed, report.submitted)});
  table.add_row({"GPU utilization",
                 util::format_percent(report.gpu_util_active)});
  table.add_row({"GPU active rate",
                 util::format_percent(report.gpu_active_rate)});
  table.add_row({"fragmentation (case 1 / case 2)",
                 util::format_percent(report.frag_rate) + " / " +
                     util::format_percent(report.frag_case2_rate)});
  table.add_row({"preemptions / migrations",
                 util::strfmt("%d / %d", report.preemptions,
                              report.migrations)});
  table.add_row({"eliminator throttles",
                 util::strfmt("%d MBA / %d halvings",
                              report.eliminator_stats.mba_throttles,
                              report.eliminator_stats.core_halvings)});
  table.print(std::cout);

  if (flags.count("csv-dir") > 0) {
    if (auto status = sim::save_report_csv(report, flags.at("csv-dir"),
                                           "replay_" + report.scheduler);
        !status.ok()) {
      std::fprintf(stderr, "csv export failed: %s\n",
                   status.error().message.c_str());
      return 1;
    }
    std::printf("CSV files written to %s/\n", flags.at("csv-dir").c_str());
  }
  return 0;
}

int cmd_sweep(const std::map<std::string, std::string>& flags) {
  const auto trace = make_or_load_trace(flags);
  const auto policy = parse_policy(flag_or(flags, "policy", "coda"));
  util::Table table("capacity sweep");
  table.set_header({"nodes", "GPUs", "gpu util", "gpu active",
                    "gpu jobs no-queue", "completed"});
  for (const auto& nodes_str :
       util::split(flag_or(flags, "nodes", "40,60,80,100"), ',')) {
    auto nodes = util::parse_strict_int(nodes_str, 1,
                                        std::numeric_limits<int>::max());
    if (!nodes.ok()) {
      examples::flag_die("nodes", nodes_str, nodes.error().message);
    }
    sim::ExperimentConfig config;
    config.engine.cluster.node_count = static_cast<int>(*nodes);
    const auto report = sim::run_experiment(policy, trace, config);
    size_t instant = 0;
    for (double q : report.gpu_queue_times) {
      instant += q <= 1.0 ? 1 : 0;
    }
    table.add_row(
        {nodes_str,
         std::to_string(config.engine.cluster.node_count *
                        config.engine.cluster.node.gpus),
         util::format_percent(report.gpu_util_active),
         util::format_percent(report.gpu_active_rate),
         util::format_percent(report.gpu_queue_times.empty()
                                  ? 0.0
                                  : static_cast<double>(instant) /
                                        report.gpu_queue_times.size()),
         util::strfmt("%zu/%zu", report.completed, report.submitted)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_characterize(const std::map<std::string, std::string>& flags) {
  const std::string dir = flag_or(flags, "out", ".");
  if (auto status = perfmodel::save_characterization_csv(dir);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 1;
  }
  std::printf(
      "wrote fig3_cores.csv, fig5_fig6_summary.csv, fig7_contention.csv "
      "to %s/\n",
      dir.c_str());
  return 0;
}

int cmd_models() {
  perfmodel::TrainPerf perf;
  util::Table table("Table-I model zoo characterization");
  table.set_header({"model", "category", "opt cores 1N1G", "opt 1N4G",
                    "mem BW GB/s", "PCIe GB/s", "peak util"});
  for (perfmodel::ModelId m : perfmodel::kAllModels) {
    const auto& p = perfmodel::model_params(m);
    const int o1 = perf.optimal_cores(m, {1, 1, 0});
    table.add_row(
        {p.name, perfmodel::to_string(p.category), std::to_string(o1),
         std::to_string(perf.optimal_cores(m, {1, 4, 0})),
         util::strfmt("%.1f", perf.mem_bw_demand_gbps(m, {1, 1, 0}, o1)),
         util::strfmt("%.1f", perf.pcie_demand_gbps(m, {1, 1, 0}, o1)),
         util::format_percent(perf.gpu_utilization(m, {1, 1, 0}, o1))});
  }
  table.print(std::cout);
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: coda_cli "
               "<generate|replay|inspect|sweep|models|characterize> "
               "[--flag value ...]\n"
               "  generate --days D --seed S --out FILE\n"
               "  replay   [--trace FILE | --days D --seed S] --policy "
               "fifo|drf|coda [--nodes N] [--noise SIGMA] [--csv-dir DIR]\n"
               "  replay   --journal FILE [--expect-report FILE] [--out "
               "FILE]\n"
               "  replay   --snapshot FILE.SNAP.N [--journal FILE] "
               "[--expect-report FILE]\n"
               "           (restore the snapshot + journal tail and finish "
               "the session)\n"
               "  inspect  [--trace FILE | --days D --seed S]\n"
               "  sweep    [--trace FILE | --days D] --policy P --nodes "
               "N1,N2,...\n"
               "  models\n"
               "  characterize --out DIR\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const auto flags = examples::parse_flag_pairs(argc, argv, 2, usage);
  if (cmd == "generate") {
    return cmd_generate(flags);
  }
  if (cmd == "replay") {
    return cmd_replay(flags);
  }
  if (cmd == "inspect") {
    return cmd_inspect(flags);
  }
  if (cmd == "sweep") {
    return cmd_sweep(flags);
  }
  if (cmd == "models") {
    return cmd_models();
  }
  if (cmd == "characterize") {
    return cmd_characterize(flags);
  }
  usage();
  return 2;
}
