// Tests for the engine's hot-node pressure screen (ClusterEngine::
// pressure_screen) and the contention eliminator that consumes it.
//
// The screen lists only occupied nodes at or above the floor the eliminator
// registers, from a set recompute_node keeps current. These tests pin its
// contract at random instants of a contended CODA replay, check that a
// restored engine rebuilds the same screen and metrics-tick terms (and
// refuses snapshot rows those caches cannot index), and replay whole
// sessions against an eliminator that screens every node, the
// decision-for-decision reference the hot screen must reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/report_io.h"
#include "state/snapshot.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/trace_gen.h"

namespace coda::sim {
namespace {

uint64_t bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// A contended CODA replay: the standard week's seed-2 stream cut to two
// days with a third of the week's jobs, on the default 80-node cluster,
// with GPU-utilization noise so the eliminator finds suffering DNN jobs.
// On nodes without MBA it halves cores 36 times over the second day (63
// times, with 4 releases, under release_when_calm).
constexpr double kHorizonS = 2.0 * 86400.0;

const std::vector<workload::JobSpec>& contended_trace() {
  static const std::vector<workload::JobSpec> trace = [] {
    auto cfg = standard_week_trace(2);
    cfg.duration_s = kHorizonS;
    cfg.cpu_jobs /= 3;
    cfg.gpu_jobs /= 3;
    return workload::TraceGenerator(cfg).generate();
  }();
  return trace;
}

ExperimentConfig contended_config() {
  ExperimentConfig config;
  config.horizon_s = kHorizonS;
  config.engine.util_noise_stddev = 0.05;
  return config;
}

// ------------------------------------------------ reference screen proxy

// Forwards every probe to the engine but keeps the base class's
// pressure_screen, which lists every node with pressure(id).
class AllNodesBandwidth : public telemetry::BandwidthSource {
 public:
  explicit AllNodesBandwidth(const telemetry::BandwidthSource* inner)
      : inner_(inner) {}
  telemetry::NodeBandwidthSample sample(cluster::NodeId node) const override {
    return inner_->sample(node);
  }
  void sample_into(cluster::NodeId node,
                   telemetry::NodeBandwidthSample* out) const override {
    inner_->sample_into(node, out);
  }
  double pressure(cluster::NodeId node) const override {
    return inner_->pressure(node);
  }

 private:
  const telemetry::BandwidthSource* inner_;
};

// Hands the wrapped scheduler an environment whose bandwidth source screens
// every node; everything else passes straight through.
class AllNodesScreenProxy : public sched::Scheduler {
 public:
  explicit AllNodesScreenProxy(sched::Scheduler* inner) : inner_(inner) {}
  const char* name() const override { return inner_->name(); }
  // Forwards to the inner policy without Scheduler::attach: the inner
  // policy registers itself as the sink of the policy's event kinds.
  void attach(const sched::SchedulerEnv& env) override {
    bandwidth_ = std::make_unique<AllNodesBandwidth>(env.bandwidth);
    sched::SchedulerEnv wrapped = env;
    wrapped.bandwidth = bandwidth_.get();
    inner_->attach(wrapped);
  }
  void submit(const workload::JobSpec& spec) override { inner_->submit(spec); }
  void on_job_finished(const workload::JobSpec& spec) override {
    inner_->on_job_finished(spec);
  }
  void on_job_evicted(const workload::JobSpec& spec) override {
    inner_->on_job_evicted(spec);
  }
  void kick() override { inner_->kick(); }
  size_t pending_jobs() const override { return inner_->pending_jobs(); }
  size_t pending_gpu_jobs() const override {
    return inner_->pending_gpu_jobs();
  }
  std::optional<PendingGpuDemand> min_pending_gpu_demand() const override {
    return inner_->min_pending_gpu_demand();
  }
  int reclaimable_cpus(cluster::NodeId node) const override {
    return inner_->reclaimable_cpus(node);
  }

 private:
  sched::Scheduler* inner_;
  std::unique_ptr<AllNodesBandwidth> bandwidth_;
};

struct Replay {
  std::string report;
  core::EliminatorStats stats;
};

Replay replay_coda(const ExperimentConfig& config, bool all_nodes_screen) {
  const auto& trace = contended_trace();
  PolicyScheduler ps = make_policy_scheduler(Policy::kCoda, config);
  AllNodesScreenProxy proxy(ps.scheduler.get());
  sched::Scheduler* scheduler =
      all_nodes_screen ? static_cast<sched::Scheduler*>(&proxy)
                       : ps.scheduler.get();
  ClusterEngine engine(config.engine, scheduler);
  engine.load_trace(trace);
  schedule_failures(&engine, config, config.horizon_s);
  engine.run_until(config.horizon_s);
  engine.drain(config.horizon_s + config.drain_slack_s);
  return Replay{serialize_report(build_report(Policy::kCoda, engine,
                                              trace.size(), config.horizon_s,
                                              ps.coda)),
                ps.coda->eliminator_stats()};
}

struct ReferenceCase {
  bool release_when_calm;
  double mba_fraction;
  bool failures;
};

class EliminatorReference : public testing::TestWithParam<ReferenceCase> {};

INSTANTIATE_TEST_SUITE_P(
    PressureScreen, EliminatorReference,
    testing::Values(ReferenceCase{false, 0.0, false},
                    ReferenceCase{false, 0.5, false},
                    ReferenceCase{false, 1.0, false},
                    ReferenceCase{true, 0.0, false},
                    ReferenceCase{true, 0.5, false},
                    ReferenceCase{true, 1.0, false},
                    ReferenceCase{true, 0.0, true}),
    [](const testing::TestParamInfo<ReferenceCase>& info) {
      const ReferenceCase& c = info.param;
      return std::string(c.release_when_calm ? "Release" : "Keep") + "Mba" +
             std::to_string(static_cast<int>(c.mba_fraction * 100)) +
             (c.failures ? "Failures" : "");
    });

// The hot screen must make every decision the whole-cluster screen makes:
// byte-identical reports and eliminator counters with and without the
// release extension, on clusters with no, some and only MBA nodes, and
// with node failures evicting throttled jobs. The one ordering the hot
// screen changes — a node mutated mid-pass is flushed at the next visited
// row or after the dispatch, not at the next row of the whole cluster —
// could only show here, as a finish landing on the next eliminator tick.
TEST_P(EliminatorReference, ReportsAndCountersMatch) {
  const ReferenceCase& c = GetParam();
  ExperimentConfig config = contended_config();
  config.coda.eliminator.release_when_calm = c.release_when_calm;
  config.engine.cluster.mba_fraction = c.mba_fraction;
  if (c.failures) {
    // 25 outages evict 130 jobs; the eliminator still halves cores 31
    // times and releases 3.
    config.failures.node_mtbf_s = 7200.0;
    config.failures.outage_s = 600.0;
    config.failures.seed = 11;
    config.retry.enabled = true;
  }
  const Replay hot = replay_coda(config, false);
  const Replay reference = replay_coda(config, true);
  EXPECT_EQ(hot.report, reference.report);
  EXPECT_EQ(hot.stats.checks, reference.stats.checks);
  EXPECT_EQ(hot.stats.nodes_over_threshold,
            reference.stats.nodes_over_threshold);
  EXPECT_EQ(hot.stats.mba_throttles, reference.stats.mba_throttles);
  EXPECT_EQ(hot.stats.core_halvings, reference.stats.core_halvings);
  EXPECT_EQ(hot.stats.releases, reference.stats.releases);
  // The eliminator must act, or the comparison proves nothing.
  EXPECT_GT(hot.stats.mba_throttles + hot.stats.core_halvings, 0);
  if (c.release_when_calm && c.mba_fraction == 0.0) {
    EXPECT_GT(hot.stats.releases, 0);
  }
}

// ------------------------------------------------------ screen contract

struct Screen {
  std::vector<cluster::NodeId> ids;
  std::vector<double> pressures;
};

Screen screen_of(const ClusterEngine& engine) {
  Screen s;
  engine.pressure_screen(engine.cluster().node_count(), &s.ids,
                         &s.pressures);
  return s;
}

void expect_same_screen(const Screen& got, const Screen& want) {
  ASSERT_EQ(got.ids, want.ids);
  ASSERT_EQ(got.pressures.size(), want.pressures.size());
  for (size_t i = 0; i < got.pressures.size(); ++i) {
    EXPECT_EQ(bits(got.pressures[i]), bits(want.pressures[i]))
        << "node " << got.ids[i];
  }
}

// The most active case above: release_when_calm on a cluster without MBA.
ExperimentConfig active_config() {
  ExperimentConfig config = contended_config();
  config.coda.eliminator.release_when_calm = true;
  config.engine.cluster.mba_fraction = 0.0;
  return config;
}

// At random instants the screen is exactly the ascending rows
// {(id, pressure(id)) : occupied, pressure(id) >= floor}, where CODA's
// eliminator registered its bw_threshold as the floor.
TEST(PressureScreen, ListsExactlyOccupiedNodesAtOrAboveFloor) {
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(testing::Message() << "incremental=" << incremental);
    ExperimentConfig config = active_config();
    config.engine.incremental_recompute = incremental;
    const double floor = config.coda.eliminator.bw_threshold;
    Session s = Session::start(Policy::kCoda, contended_trace(), config);
    util::Rng rng(0x5C2EE7);
    std::vector<double> instants;
    for (int i = 0; i < 400; ++i) {
      instants.push_back(rng.uniform(0.0, config.horizon_s));
    }
    std::sort(instants.begin(), instants.end());
    size_t hot_rows = 0;
    size_t cool_occupied = 0;
    for (const double t : instants) {
      s.engine->run_until(t);
      const ClusterEngine& engine = *s.engine;
      Screen want;
      for (const cluster::Node& node : engine.cluster().nodes()) {
        if (node.allocations().empty()) {
          continue;
        }
        const double p = engine.pressure(node.id());
        if (p >= floor) {
          want.ids.push_back(node.id());
          want.pressures.push_back(p);
        } else {
          ++cool_occupied;
        }
      }
      SCOPED_TRACE(testing::Message() << "t=" << t);
      expect_same_screen(screen_of(engine), want);
      hot_rows += want.ids.size();
    }
    // Both sides of the floor must occur, or the test pins nothing.
    EXPECT_GT(hot_rows, 0u);
    EXPECT_GT(cool_occupied, 0u);
  }
}

// Runs the active replay to the first instant past its first day (off the
// metrics grid, so exactly one tick follows within a period) where some
// node is hot and the eliminator holds a throttle record, and snapshots it.
double cut_hot(Session* live, state::Snapshot* snapshot) {
  const double horizon = active_config().horizon_s;
  double cut = 86400.0 + 7.0;
  for (; cut < horizon; cut += 300.0) {
    live->engine->run_until(cut);
    const core::ContentionEliminator& eliminator =
        live->scheduler.coda->eliminator();
    const auto& records = live->engine->records();
    if (!screen_of(*live->engine).ids.empty() &&
        std::any_of(records.begin(), records.end(), [&](const auto& r) {
          return eliminator.is_throttled(r.first);
        })) {
      break;
    }
  }
  EXPECT_LT(cut, horizon) << "no hot node to snapshot";
  state::SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = live->engine->sim().now();
  meta.dispatched = live->engine->sim().dispatched();
  auto blob = state::capture_snapshot(meta, "offline", *live->engine,
                                      *live->scheduler.scheduler);
  EXPECT_TRUE(blob.ok()) << blob.error().message;
  auto parsed = state::parse_snapshot(blob.ok() ? *blob : std::string());
  EXPECT_TRUE(parsed.ok()) << parsed.error().message;
  if (parsed.ok()) {
    *snapshot = *parsed;
  }
  return cut;
}

// A restored engine rebuilds the screen, the cached pressures and the
// metrics-tick terms from the snapshot: its screen, every pressure() and
// its next metrics tick equal the live engine's.
TEST(PressureScreen, RestoredEngineMatchesLiveScreenAndTick) {
  const ExperimentConfig config = active_config();
  const auto& trace = contended_trace();
  Session live = Session::start(Policy::kCoda, trace, config);
  state::Snapshot snapshot;
  const double cut = cut_hot(&live, &snapshot);
  auto restored = state::restore_session(snapshot, Policy::kCoda, config,
                                         trace);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  ClusterEngine& copy = *restored->engine;

  expect_same_screen(screen_of(copy), screen_of(*live.engine));
  for (cluster::NodeId id = 0; id < copy.cluster().node_count(); ++id) {
    EXPECT_EQ(bits(copy.pressure(id)), bits(live.engine->pressure(id)))
        << "node " << id;
  }

  const char* const kTickSeries[] = {"gpu_util_active", "cpu_util_active",
                                     "mem_pressure_mean"};
  const size_t before =
      live.engine->metrics().series("cpu_util_active").size();
  const double next = cut + config.engine.metrics_period_s;
  live.engine->run_until(next);
  copy.run_until(next);
  for (const char* name : kTickSeries) {
    SCOPED_TRACE(name);
    const util::TimeSeries& want = live.engine->metrics().series(name);
    const util::TimeSeries& got = copy.metrics().series(name);
    ASSERT_EQ(want.size(), before + 1);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(bits(got.at(before).t), bits(want.at(before).t));
    EXPECT_EQ(bits(got.at(before).value), bits(want.at(before).value));
  }
}

// The caches load_state rebuilds index by the snapshot's node ids and legs,
// so a restore must refuse rows they cannot index instead of reading out of
// bounds: a throttle record on a node the cluster does not have, and a
// running job with no legs.
TEST(PressureScreen, RestoreRefusesRowsTheCachesCannotIndex) {
  const ExperimentConfig config = active_config();
  const auto& trace = contended_trace();
  Session live = Session::start(Policy::kCoda, trace, config);
  state::Snapshot snapshot;
  cut_hot(&live, &snapshot);
  const std::vector<std::string> lines = util::split(snapshot.body, '\n');

  {
    std::vector<std::string> edited = lines;
    auto et = std::find_if(edited.begin(), edited.end(),
                           [](const std::string& l) {
                             return l.rfind("et ", 0) == 0;
                           });
    ASSERT_NE(et, edited.end()) << "no throttle record in the snapshot";
    std::vector<std::string> tokens = util::split(*et, ' ');
    tokens[2] = std::to_string(config.engine.cluster.node_count);
    *et = util::join(tokens, " ");
    state::Snapshot bad = snapshot;
    bad.body = util::join(edited, "\n");
    EXPECT_FALSE(
        state::restore_session(bad, Policy::kCoda, config, trace).ok());
  }

  {
    // A one-leg CPU job: `run ... 1`, then its place and pstate rows
    // (pstate's fourth token is is_gpu_job), and one rid under its node.
    std::vector<std::string> edited = lines;
    size_t run = 0;
    for (; run + 2 < edited.size(); ++run) {
      if (edited[run].rfind("run ", 0) == 0 &&
          util::split(edited[run], ' ').back() == "1" &&
          util::split(edited[run + 2], ' ')[3] == "0") {
        break;
      }
    }
    ASSERT_LT(run + 2, edited.size()) << "no running CPU job";
    std::vector<std::string> tokens = util::split(edited[run], ' ');
    const std::string job = tokens[1];
    const std::string node = util::split(edited[run + 1], ' ')[1];
    tokens.back() = "0";
    edited[run] = util::join(tokens, " ");
    edited.erase(edited.begin() + static_cast<long>(run) + 1,
                 edited.begin() + static_cast<long>(run) + 3);
    auto res = std::find_if(edited.begin(), edited.end(),
                            [&](const std::string& l) {
                              return l.rfind("res " + node + " ", 0) == 0;
                            });
    ASSERT_NE(res, edited.end());
    std::vector<std::string> res_tokens = util::split(*res, ' ');
    res_tokens[2] = std::to_string(std::stoi(res_tokens[2]) - 1);
    *res = util::join(res_tokens, " ");
    auto rid = std::find(res, edited.end(), "rid " + job);
    ASSERT_NE(rid, edited.end());
    edited.erase(rid);
    state::Snapshot bad = snapshot;
    bad.body = util::join(edited, "\n");
    EXPECT_FALSE(
        state::restore_session(bad, Policy::kCoda, config, trace).ok());
  }
}

}  // namespace
}  // namespace coda::sim
