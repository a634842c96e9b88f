// Scale benchmark: one big experiment vs cluster size.
//
// Replays the synthetic scale profile (workload/trace_gen.h: wide multi-node
// training gangs on a 2k/10k-node cluster) through a live ClusterEngine once
// per cluster size and reports events/sec. The placement index's answers
// are pinned to the linear-scan reference by tests/placement_index_test.cpp
// (report digests of the --fast traces under FIFO, DRF and CODA).
//
// Full mode replays day-long traces on {2k, 10k} nodes and prints one
// machine-readable line — "BENCH_SCALE_JSON {...}" — for
// scripts/run_benches.sh (events_per_sec_scale is the 10k-node cell;
// placement_ops_per_sec is indexed find/count probes retired per second in
// that run). --fast / CODA_FAST=1 shrinks the workload so the binary can run
// as a ctest case.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/engine.h"
#include "sim/experiment.h"
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

  double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
  double probes_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(index_probes) / wall_s : 0.0;
  }
};

ScaleRun replay(const ScaleCase& sc) {
  const auto trace = workload::TraceGenerator(sc.trace_config).generate();
  std::printf("case %s: %d nodes, %zu jobs\n", sc.label, sc.nodes,
              trace.size());

  sim::ExperimentConfig config;
  config.engine.cluster.node_count = sc.nodes;
  sim::Session session = sim::Session::start(sim::Policy::kCoda, trace, config);
  sim::ClusterEngine& engine = *session.engine;
  const double horizon = session.config.horizon_s;

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
  std::printf("  events=%zu  wall=%.2fs  %.0f events/s\n", r.events, r.wall_s,
              r.events_per_sec());
  std::fflush(stdout);
  return r;
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
      "scale", "one-experiment scalability: events/sec vs cluster size");

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
  table.set_header({"cluster", "events/s"});
  double events_per_sec_scale = 0.0;  // 10k nodes (the headline)
  double placement_ops_per_sec = 0.0;  // 10k nodes
  for (const ScaleCase& sc : cases) {
    const ScaleRun run = replay(sc);
    table.add_row({sc.label, bench::num(run.events_per_sec(), 0)});
    if (sc.nodes == 10000) {
      events_per_sec_scale = run.events_per_sec();
      placement_ops_per_sec = run.probes_per_sec();
    }
  }
  std::printf("\n%s\n", table.to_string().c_str());
  std::printf(
      "BENCH_SCALE_JSON {\"events_per_sec_scale\": %.1f, "
      "\"placement_ops_per_sec\": %.1f}\n",
      events_per_sec_scale, placement_ops_per_sec);

  if (events_per_sec_scale <= 0.0) {
    std::fprintf(stderr, "bench_scale: no 10k-node measurement\n");
    return 1;
  }
  return 0;
}
