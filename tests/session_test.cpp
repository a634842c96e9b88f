// live == replay == restore at the sim layer. Three runs of one session
// must serialize to the same report bytes:
//   A (live)    a session advances to seeded random instants and injects a
//               fresh job at Session::injection_instant() at each, as a
//               codad shard does for every accepted SUBMIT;
//   B (replay)  run_experiment over the trace plus those jobs at their
//               injection instants, as `coda_cli replay --journal` runs;
//   C (restore) A snapshotted halfway, restored through restore_session and
//               fed the remaining injections, as `codad --restore` runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/report_io.h"
#include "state/snapshot.h"
#include "util/rng.h"
#include "workload/trace_gen.h"

namespace coda::sim {
namespace {

class SessionEquivalence : public testing::TestWithParam<Policy> {};

INSTANTIATE_TEST_SUITE_P(
    Policies, SessionEquivalence,
    testing::Values(Policy::kFifo, Policy::kDrf, Policy::kCoda),
    [](const testing::TestParamInfo<Policy>& info) {
      return std::string(to_string(info.param));
    });

TEST_P(SessionEquivalence, LiveReplayAndRestoreReportTheSameBytes) {
  const Policy policy = GetParam();
  workload::TraceConfig trace_cfg = standard_week_trace(5);
  trace_cfg.duration_s = 4.0 * 3600.0;
  trace_cfg.cpu_jobs = 60;
  trace_cfg.gpu_jobs = 30;
  const auto trace = workload::TraceGenerator(trace_cfg).generate();

  ExperimentConfig config;
  config.horizon_s = trace_cfg.duration_s;
  config.drain_slack_s = 86400.0;
  config.engine.cluster.node_count = 8;
  config.retry.enabled = true;
  config.retry.backoff_base_s = 30.0;
  config.retry.max_retries = 3;
  config.failures.node_mtbf_s = 1800.0;
  config.failures.outage_s = 300.0;
  config.failures.seed = 17;

  // The injected jobs: a second trace's, renumbered past the base ids, each
  // due at a seeded random instant, plus one more (a copy of the first)
  // due one ulp before the metrics tick at t = 3600. Its injection instant
  // coincides with that queued tick; the tick must dispatch first, as it
  // does in the replay, where the tick precedes the pre-posted arrival's
  // instant.
  workload::TraceConfig extra_cfg = trace_cfg;
  extra_cfg.seed = 99;
  extra_cfg.cpu_jobs = 12;
  extra_cfg.gpu_jobs = 6;
  std::vector<workload::JobSpec> jobs =
      workload::TraceGenerator(extra_cfg).generate();
  util::Rng rng(0x5E55);
  std::vector<double> instants;
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = 1000000 + i;
    instants.push_back(rng.uniform(0.0, config.horizon_s));
  }
  jobs.push_back(jobs.front());
  jobs.back().id = 1000000 + instants.size();
  instants.push_back(std::nextafter(3600.0, 0.0));
  std::sort(instants.begin(), instants.end());

  // A, snapshotted between its injections at `half`.
  const size_t half = jobs.size() / 2;
  Session live = Session::start(policy, trace, config);
  std::string blob;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (i == half) {
      state::SnapshotMeta meta;
      meta.virtual_time = live.engine->sim().now();
      meta.dispatched = live.engine->sim().dispatched();
      auto captured = state::capture_snapshot(meta, "", *live.engine,
                                              *live.scheduler.scheduler);
      ASSERT_TRUE(captured.ok()) << captured.error().message;
      blob = *captured;
    }
    live.engine->run_until(instants[i]);
    jobs[i].submit_time = live.injection_instant();
    live.inject(jobs[i], jobs[i].submit_time);
  }
  const ExperimentReport a = live.finish();
  EXPECT_EQ(a.submitted, trace.size() + jobs.size());
  EXPECT_GT(a.node_failures, 0);
  EXPECT_GT(a.evictions, 0);

  // B.
  std::vector<workload::JobSpec> replay_trace = trace;
  replay_trace.insert(replay_trace.end(), jobs.begin(), jobs.end());
  const std::string b =
      serialize_report(run_experiment(policy, replay_trace, config));

  // C, restored against B's trace: it names every job the snapshot holds.
  auto parsed = state::parse_snapshot(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  auto restored =
      state::restore_session(*parsed, policy, config, replay_trace);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  for (size_t i = half; i < jobs.size(); ++i) {
    restored->engine->run_until(instants[i]);
    restored->inject(jobs[i], jobs[i].submit_time);
  }
  const std::string c = serialize_report(restored->finish());

  EXPECT_EQ(b, serialize_report(a));
  EXPECT_EQ(c, serialize_report(a));
}

}  // namespace
}  // namespace coda::sim
