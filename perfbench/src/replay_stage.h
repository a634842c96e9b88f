// Replay stage: the workload's job stream replayed offline under FIFO, DRF
// and CODA with the serial engine, driven step by step through the same
// calls sim::run_experiment makes (make_policy_scheduler, ClusterEngine,
// load_trace, run_until, drain, build_report). run_until runs in 100 slices
// of simulated time and drain one 6-hour chunk at a time, each slice or
// chunk a timed window. When outputs are checked, the
// CODA replay is cut at 70% of the horizon to capture, parse and restore a
// snapshot; the original engine then runs on to the end.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "tracer.h"

namespace perfbench {

struct ReplayRun {
  coda::sim::Policy policy = coda::sim::Policy::kFifo;
  double setup_s = 0.0;  // engine construction + load_trace
  double wall_s = 0.0;   // run_until + drain, snapshot work excluded
  // wall_s split into its timed windows, in replay order. The split depends
  // only on the trace, so every replay of one trace has the same windows.
  std::vector<double> segments_s;
  std::string digest;    // fnv1a_hex of the serialized report, when checked
  std::string report;    // the serialized report itself, when kept
  uint64_t events = 0;
  uint64_t allocs = 0;   // heap allocations inside the timed window
  coda::sim::ClusterEngine::EngineStats stats;
  coda::perfmodel::TrainPerf::CacheStats cache;
  uint64_t index_probes = 0;
  // CODA with checks only: snapshot at the 70% cut.
  double capture_ms = 0.0;
  double parse_ms = 0.0;
  double restore_ms = 0.0;
  size_t snapshot_bytes = 0;
};

struct ReplayIteration {
  double gen_s = 0.0;  // trace generation
  std::array<ReplayRun, 3> runs;  // FIFO, DRF, CODA

  double setup_s() const {
    return gen_s + runs[0].setup_s + runs[1].setup_s + runs[2].setup_s;
  }
};

// The check behind the recorded digests: true when no digest is recorded
// for `policy`, else iff the recorded one equals `digest`.
bool digest_ok(const DigestMap& expected, const std::string& policy,
               const std::string& digest);

// Generates the workload's trace and replays it under all three policies.
// With a tracer, each engine gets a SchedulerProxy and the timed windows are
// recorded as root spans. With `check`, the output checks run and count into
// `result`: report digests against the recorded ones and the snapshot round
// trip with a byte-identical re-capture of the restored session. Serialized
// reports are kept only with kRunAndKeepReports.
enum class Checks { kSkip, kRun, kRunAndKeepReports };
ReplayIteration run_replays(const Workload& workload, uint64_t seed,
                            const DigestMap& expected, Tracer* tracer,
                            Checks checks, Result* result);

// sim::run_experiment's serialized report for the workload's trace under
// `policy`: the program's own replay, with one run_until and one drain,
// which the windowed replays must reproduce byte for byte.
std::string reference_report(coda::sim::Policy policy, const Workload& workload,
                             const std::vector<coda::workload::JobSpec>& trace);

// Wall time of the set-up part of run_replays alone: trace generation plus,
// per policy, engine construction, load_trace and schedule_failures.
double time_setup(const Workload& workload, uint64_t seed);

}  // namespace perfbench
