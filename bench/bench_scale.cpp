// Scale benchmark: one big experiment vs cluster size, placement index on
// and off.
//
// Replays the synthetic scale profile (workload/trace_gen.h: wide multi-node
// training gangs on a 2k/10k-node cluster) through a live ClusterEngine
// twice per cluster size: once with the placement index disabled
// (CODA_NO_PLACEMENT_INDEX-equivalent linear scans) and once with it on,
// and reports events/sec plus the index's gain over the scan. Both replays'
// ExperimentReports must serialize to the same bytes — the index is an
// optimization, never a behavior change — and the binary fails loudly if
// they disagree.
//
// Full mode replays day-long traces on {2k, 10k} nodes and prints one
// machine-readable line — "BENCH_SCALE_JSON {...}" — for
// scripts/run_benches.sh (events_per_sec_scale is the 10k-node indexed
// cell; placement_ops_per_sec is indexed find/count probes retired per
// second in that run). --fast / CODA_FAST=1 shrinks the workload so the
// binary can run as a ctest case.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sched/placement.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/report_io.h"
#include "util/table.h"
#include "workload/trace_gen.h"

namespace {

using namespace coda;

double wall_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct ScaleCase {
  const char* label = "";
  int nodes = 0;
  workload::TraceConfig trace_config;
};

struct ScaleRun {
  size_t events = 0;
  double wall_s = 0.0;
  uint64_t index_probes = 0;  // indexed placement queries in the window
  std::string report_blob;

  double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
  double probes_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(index_probes) / wall_s : 0.0;
  }
};

ScaleRun replay(const ScaleCase& sc, const std::vector<workload::JobSpec>& trace,
                bool use_index) {
  // Results are index-invariant, which run_case() asserts on the report
  // bytes.
  sched::set_placement_index_enabled(use_index);

  sim::ExperimentConfig config;
  config.engine.cluster.node_count = sc.nodes;
  double horizon = 0.0;
  for (const auto& spec : trace) {
    horizon = std::max(horizon, spec.submit_time);
  }
  config.horizon_s = horizon;

  auto sched = sim::make_policy_scheduler(sim::Policy::kCoda, config);
  sim::ClusterEngine engine(config.engine, sched.scheduler.get());
  engine.load_trace(trace);

  // Short warmup so the population ramps and the pools/memos fill; the
  // measured window is the loaded steady state plus the drain.
  engine.run_until(0.1 * horizon);
  const size_t events0 = engine.sim().dispatched();
  const uint64_t probes0 = engine.cluster().placement_index().stats().probes;
  const double t0 = wall_seconds();
  engine.run_until(horizon);
  engine.drain(horizon + config.drain_slack_s);
  const double t1 = wall_seconds();

  ScaleRun r;
  r.events = engine.sim().dispatched() - events0;
  r.wall_s = t1 - t0;
  r.index_probes = engine.cluster().placement_index().stats().probes - probes0;
  r.report_blob = sim::serialize_report(sim::build_report(
      sim::Policy::kCoda, engine, trace.size(), horizon, sched.coda));
  sched::set_placement_index_enabled(true);
  return r;
}

struct CaseResult {
  ScaleRun scan;   // placement index disabled
  ScaleRun index;  // placement index on
};

// Runs one cluster size: the linear-scan baseline first, then the indexed
// replay. Exits non-zero if the two reports diverge.
CaseResult run_case(const ScaleCase& sc) {
  const auto trace = workload::TraceGenerator(sc.trace_config).generate();
  std::printf("case %s: %d nodes, %zu jobs\n", sc.label, sc.nodes,
              trace.size());

  CaseResult cr;
  cr.scan = replay(sc, trace, /*use_index=*/false);
  std::printf("  scan   events=%zu  wall=%.2fs  %.0f events/s\n",
              cr.scan.events, cr.scan.wall_s, cr.scan.events_per_sec());
  std::fflush(stdout);
  cr.index = replay(sc, trace, /*use_index=*/true);
  std::printf("  index  events=%zu  wall=%.2fs  %.0f events/s  "
              "(%.2fx vs scan)\n",
              cr.index.events, cr.index.wall_s, cr.index.events_per_sec(),
              cr.index.events_per_sec() / cr.scan.events_per_sec());
  std::fflush(stdout);
  if (cr.index.report_blob != cr.scan.report_blob) {
    std::fprintf(stderr,
                 "bench_scale: indexed report diverges from the linear scan "
                 "on %s — the placement index changed behavior\n",
                 sc.label);
    std::exit(1);
  }
  return cr;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = bench::fast_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--fast") {
      fast = true;
    }
  }
  bench::print_banner(
      "scale",
      "one-experiment scalability: events/sec vs cluster size, placement "
      "index vs linear scan");

  std::vector<ScaleCase> cases;
  if (fast) {
    ScaleCase small;
    small.label = "2k-smoke";
    small.nodes = 2000;
    small.trace_config =
        workload::scale_profile(2000, /*gpu_jobs=*/600, /*cpu_jobs=*/900,
                                /*duration_s=*/4.0 * 3600.0);
    cases.push_back(small);
    ScaleCase big;
    big.label = "10k-smoke";
    big.nodes = 10000;
    big.trace_config =
        workload::scale_profile(10000, /*gpu_jobs=*/1200, /*cpu_jobs=*/1800,
                                /*duration_s=*/2.0 * 3600.0);
    cases.push_back(big);
  } else {
    ScaleCase mid;
    mid.label = "2k";
    mid.nodes = 2000;
    mid.trace_config =
        workload::scale_profile(2000, /*gpu_jobs=*/6000, /*cpu_jobs=*/9000,
                                /*duration_s=*/2.0 * 86400.0);
    cases.push_back(mid);
    ScaleCase big;
    big.label = "10k";
    big.nodes = 10000;
    big.trace_config =
        workload::scale_profile(10000, /*gpu_jobs=*/15000, /*cpu_jobs=*/22500,
                                /*duration_s=*/1.0 * 86400.0);
    cases.push_back(big);
  }

  util::Table table;
  table.set_header({"cluster", "mode", "events/s", "vs scan"});
  double events_per_sec_scale = 0.0;  // 10k nodes, index on (the headline)
  double index_gain_10k = 0.0;        // index on vs scan
  double placement_ops_per_sec = 0.0; // 10k nodes, index on
  for (const ScaleCase& sc : cases) {
    const CaseResult cr = run_case(sc);
    const double gain =
        cr.index.events_per_sec() / cr.scan.events_per_sec();
    table.add_row({sc.label, "scan", bench::num(cr.scan.events_per_sec(), 0),
                   "1.00x"});
    table.add_row({sc.label, "index",
                   bench::num(cr.index.events_per_sec(), 0),
                   bench::num(gain, 2) + "x"});
    if (sc.nodes == 10000) {
      events_per_sec_scale = cr.index.events_per_sec();
      index_gain_10k = gain;
      placement_ops_per_sec = cr.index.probes_per_sec();
    }
  }
  std::printf("\n%s\n", table.to_string().c_str());
  std::printf(
      "BENCH_SCALE_JSON {\"events_per_sec_scale\": %.1f, "
      "\"index_gain_10k\": %.3f, \"placement_ops_per_sec\": %.1f}\n",
      events_per_sec_scale, index_gain_10k, placement_ops_per_sec);

  if (events_per_sec_scale <= 0.0) {
    std::fprintf(stderr, "bench_scale: no 10k-node indexed measurement\n");
    return 1;
  }
  return 0;
}
