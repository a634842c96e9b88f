// cluster_replay: generate (or load) a multi-tenant trace, replay it under
// FIFO, DRF and CODA on the paper's 80-node / 400-GPU cluster, and print a
// side-by-side comparison — the Sec. VI experiment as a single command.
//
//   $ ./examples/cluster_replay [days] [seed] [trace.csv]
//
// With a trace path the trace is loaded from CSV (see workload/trace_io.h);
// otherwise a synthetic trace with the paper's marginals is generated and
// saved next to the binary for inspection.
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "sim/experiment.h"
#include "util/strings.h"
#include "util/table.h"
#include "sim/report_io.h"
#include "util/parse.h"
#include "workload/trace_io.h"

using namespace coda;

namespace {

[[noreturn]] void bad_arg(const char* name, const util::Error& error) {
  std::fprintf(stderr, "usage: cluster_replay [days] [seed] [trace.csv]\n"
                       "%s: %s\n", name, error.message.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Below ~15 minutes the generated trace is too thin to replay.
  const auto days = util::parse_strict_double(argc > 1 ? argv[1] : "2", 0.01);
  if (!days.ok()) {
    bad_arg("days", days.error());
  }
  const auto seed = util::parse_strict_u64(argc > 2 ? argv[2] : "42");
  if (!seed.ok()) {
    bad_arg("seed", seed.error());
  }

  std::vector<workload::JobSpec> trace;
  if (argc > 3) {
    auto loaded = workload::load_trace(argv[3]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", argv[3],
                   loaded.error().message.c_str());
      return 1;
    }
    trace = std::move(loaded).value();
    std::printf("loaded %zu jobs from %s\n", trace.size(), argv[3]);
  } else {
    auto cfg = sim::standard_week_trace(*seed);
    cfg.duration_s = *days * 86400.0;
    cfg.cpu_jobs = static_cast<int>(2500 * *days);
    cfg.gpu_jobs = static_cast<int>(1250 * *days);
    trace = workload::TraceGenerator(cfg).generate();
    const std::string path = "cluster_replay_trace.csv";
    if (workload::save_trace(path, trace).ok()) {
      std::printf("generated %zu jobs (%.1f days, seed %llu) -> %s\n",
                  trace.size(), *days, *seed, path.c_str());
    }
  }

  const auto summary = workload::TraceGenerator::summarize(trace);
  std::printf(
      "trace: %d CPU jobs, %d GPU jobs | req<=2/GPU %.1f%% | >10 cores "
      "%.1f%% | runtime>1h %.1f%%\n\n",
      summary.cpu_jobs, summary.gpu_jobs,
      100 * summary.frac_gpu_req_1_2_cores,
      100 * summary.frac_gpu_req_gt10_cores,
      100 * summary.frac_gpu_runtime_gt_1h);

  util::Table table("replay comparison");
  table.set_header({"scheduler", "gpu util", "gpu active", "active@queued",
                    "fragmentation", "completed", "preempt/migr"});
  for (auto policy :
       {sim::Policy::kFifo, sim::Policy::kDrf, sim::Policy::kCoda}) {
    const auto report = sim::run_experiment(policy, trace);
    // Plot-ready CSVs next to the binary (summary, series, per-job rows).
    if (auto status = sim::save_report_csv(report, ".", "replay_" +
                                               report.scheduler);
        !status.ok()) {
      std::fprintf(stderr, "csv export failed: %s\n",
                   status.error().message.c_str());
    }
    table.add_row({report.scheduler,
                   util::format_percent(report.gpu_util_active),
                   util::format_percent(report.gpu_active_rate),
                   util::format_percent(report.gpu_active_when_queued),
                   util::format_percent(report.frag_rate),
                   util::strfmt("%zu/%zu", report.completed,
                                report.submitted),
                   util::strfmt("%d/%d", report.preemptions,
                                report.migrations)});
  }
  table.print(std::cout);
  return 0;
}
