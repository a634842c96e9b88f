#include "replay_stage.h"

#include <algorithm>
#include <memory>

#include "sim/report_io.h"
#include "state/snapshot.h"
#include "workload/trace_gen.h"

namespace perfbench {

namespace {

using coda::sim::ClusterEngine;
using coda::sim::Policy;

double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

// A replay runs [0, horizon] in this many equal slices of simulated time,
// each its own timed window.
constexpr int kSegments = 100;
// A checked CODA replay takes its snapshot after this slice (70% of the
// horizon).
constexpr int kSnapshotSegment = 70;
// ClusterEngine::drain advances in chunks of this length and stops after
// the first chunk that leaves every job finished or abandoned. Calling it
// with hard caps at those chunk ends runs the same chunks and stops after
// the same one, so the drain is timed one chunk per window. The traced run
// checks every report against sim::run_experiment's, which drains in one
// call.
constexpr double kDrainChunkS = 6.0 * 3600.0;

// Runs `step` as one timed window: wall time and heap allocations accrue to
// `run`, and under tracing the window is a root span.
template <typename Step>
void timed_window(ReplayRun* run, Tracer* tracer, Step&& step) {
  const uint64_t allocs0 = allocations();
  const auto t0 = Clock::now();
  {
    ScopedSpan root(tracer, kReplay);
    step();
  }
  const double wall = seconds_since(t0);
  run->wall_s += wall;
  run->segments_s.push_back(wall);
  run->allocs += allocations() - allocs0;
}

// Captures, parses and restores a snapshot of the live CODA session and
// checks that the restored session re-captures to the same bytes.
void snapshot_roundtrip(const ClusterEngine& engine,
                        const coda::sched::Scheduler& scheduler,
                        const coda::sim::ExperimentConfig& config,
                        const std::vector<coda::workload::JobSpec>& trace,
                        Tracer* tracer, ReplayRun* run, Result* result) {
  coda::state::SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = engine.sim().now();
  meta.dispatched = engine.sim().dispatched();

  auto t0 = Clock::now();
  coda::util::Result<std::string> blob = [&] {
    ScopedSpan span(tracer, kStateCapture);
    return coda::state::capture_snapshot(meta, "perfbench", engine,
                                         scheduler);
  }();
  run->capture_ms = ms_since(t0);
  if (!blob.ok()) {
    result->op(false, "snapshot capture: " + blob.error().message);
    return;
  }
  run->snapshot_bytes = blob->size();

  t0 = Clock::now();
  auto parsed = [&] {
    ScopedSpan span(tracer, kStateParse);
    return coda::state::parse_snapshot(*blob);
  }();
  run->parse_ms = ms_since(t0);
  if (!parsed.ok()) {
    result->op(false, "snapshot parse: " + parsed.error().message);
    return;
  }
  t0 = Clock::now();
  auto restored = [&] {
    ScopedSpan span(tracer, kStateRestore);
    return coda::state::restore_session(*parsed, Policy::kCoda, config,
                                        trace);
  }();
  run->restore_ms = ms_since(t0);
  if (!restored.ok()) {
    result->op(false, "snapshot restore: " + restored.error().message);
    return;
  }
  auto again = coda::state::capture_snapshot(
      restored->meta, parsed->session_text, *restored->engine,
      *restored->scheduler.scheduler);
  result->op(again.ok() && *again == *blob &&
                 restored->engine->sim().now() == engine.sim().now(),
             "re-capture of the restored snapshot is byte-identical");
}

// A policy's engine with the trace loaded and failures scheduled: the state
// a replay starts from.
struct Session {
  coda::sim::ExperimentConfig config;
  double horizon = 0.0;
  coda::sim::PolicyScheduler ps;
  std::unique_ptr<SchedulerProxy> proxy;
  std::unique_ptr<ClusterEngine> engine;
};

// The workload's cluster, with the horizon at the last submission.
coda::sim::ExperimentConfig experiment_config(
    const Workload& workload,
    const std::vector<coda::workload::JobSpec>& trace) {
  coda::sim::ExperimentConfig config;
  config.engine.cluster.node_count = workload.nodes;
  for (const auto& spec : trace) {
    config.horizon_s = std::max(config.horizon_s, spec.submit_time);
  }
  return config;
}

Session set_up(Policy policy, const Workload& workload,
               const std::vector<coda::workload::JobSpec>& trace,
               Tracer* tracer) {
  Session s;
  s.config = experiment_config(workload, trace);
  s.horizon = s.config.horizon_s;
  s.ps = coda::sim::make_policy_scheduler(policy, s.config);
  if (tracer != nullptr) {
    s.proxy = std::make_unique<SchedulerProxy>(s.ps.scheduler.get(), tracer);
  }
  s.engine = std::make_unique<ClusterEngine>(
      s.config.engine, s.proxy ? s.proxy.get() : s.ps.scheduler.get());
  s.engine->load_trace(trace);
  coda::sim::schedule_failures(s.engine.get(), s.config, s.horizon);
  return s;
}

ReplayRun replay(Policy policy, const Workload& workload,
                 const std::vector<coda::workload::JobSpec>& trace,
                 Tracer* tracer, Checks checks, Result* result) {
  ReplayRun run;
  run.policy = policy;
  const auto t0 = Clock::now();
  Session s = set_up(policy, workload, trace, tracer);
  run.setup_s = seconds_since(t0);
  const coda::sim::ExperimentConfig& config = s.config;
  const double horizon = s.horizon;
  ClusterEngine& engine = *s.engine;

  for (int k = 1; k <= kSegments; ++k) {
    // k / kSegments is exact at k == kSegments, so the last slice ends at
    // the horizon itself.
    const double until = horizon * (static_cast<double>(k) / kSegments);
    timed_window(&run, tracer, [&] { engine.run_until(until); });
    if (k == kSnapshotSegment && policy == Policy::kCoda &&
        checks != Checks::kSkip) {
      snapshot_roundtrip(engine, *s.ps.scheduler, config, trace, tracer, &run,
                         result);
    }
  }
  const double hard_cap = horizon + config.drain_slack_s;
  for (double cap = horizon; cap < hard_cap;) {
    cap = std::min(hard_cap, cap + kDrainChunkS);
    timed_window(&run, tracer, [&] { engine.drain(cap); });
  }

  run.events = engine.sim().dispatched();
  run.stats = engine.engine_stats();
  run.cache = engine.perf().cache_stats();
  run.index_probes = engine.cluster().placement_index().stats().probes;
  if (checks != Checks::kSkip) {
    std::string report = coda::sim::serialize_report(coda::sim::build_report(
        policy, engine, trace.size(), horizon, s.ps.coda));
    run.digest = fnv1a_hex(report);
    if (checks == Checks::kRunAndKeepReports) {
      run.report = std::move(report);
    }
  }
  return run;
}

}  // namespace

bool digest_ok(const DigestMap& expected, const std::string& policy,
               const std::string& digest) {
  auto want = expected.find(policy);
  return want == expected.end() || want->second == digest;
}

ReplayIteration run_replays(const Workload& workload, uint64_t seed,
                            const DigestMap& expected, Tracer* tracer,
                            Checks checks, Result* result) {
  ReplayIteration it;
  const auto t0 = Clock::now();
  const auto trace = workload.make_trace(seed);
  it.gen_s = seconds_since(t0);

  const Policy policies[3] = {Policy::kFifo, Policy::kDrf, Policy::kCoda};
  for (size_t i = 0; i < 3; ++i) {
    if (tracer != nullptr) {
      tracer->set_replay(static_cast<uint32_t>(i));
    }
    // Every replay is one operation; a checked one fails on a wrong digest.
    it.runs[i] = replay(policies[i], workload, trace, tracer, checks, result);
    const std::string name = coda::sim::to_string(policies[i]);
    result->op(checks == Checks::kSkip ||
                   digest_ok(expected, name, it.runs[i].digest),
               name + " report digest matches the recorded one");
  }
  return it;
}

std::string reference_report(
    Policy policy, const Workload& workload,
    const std::vector<coda::workload::JobSpec>& trace) {
  return coda::sim::serialize_report(coda::sim::run_experiment(
      policy, trace, experiment_config(workload, trace)));
}

double time_setup(const Workload& workload, uint64_t seed) {
  const auto t0 = Clock::now();
  const auto trace = workload.make_trace(seed);
  for (Policy policy : {Policy::kFifo, Policy::kDrf, Policy::kCoda}) {
    set_up(policy, workload, trace, nullptr);
  }
  return seconds_since(t0);
}

}  // namespace perfbench
