// Hot-path microbenchmarks (google-benchmark): the discrete-event queue,
// contention resolution, placement search, the performance-model inner
// loops, and a full small-scale replay. These guard the simulator's own
// performance — a week-long 26k-job replay must stay in the seconds range.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "perfmodel/contention.h"
#include "perfmodel/train_perf.h"
#include "sched/placement.h"
#include "sim/experiment.h"
#include "simcore/simulator.h"
#include "util/rng.h"

namespace {

using namespace coda;

// A slot-claiming kind (a finish): every push claims a pooled slot, the
// one its cancellation handle names.
void BM_EventQueuePushPop(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    simcore::EventQueue queue;
    for (int64_t i = 0; i < state.range(0); ++i) {
      queue.push(rng.uniform(),
                 {simcore::kTagJobFinish, static_cast<uint64_t>(i)});
    }
    while (!queue.empty()) {
      benchmark::DoNotOptimize(queue.pop().t);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000);

// A kind that claims no slot (an arrival): no handle, no pool traffic.
// items_per_second here is the queue's raw events/sec ceiling.
void BM_EventQueuePostPop(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    simcore::EventQueue queue;
    for (int64_t i = 0; i < state.range(0); ++i) {
      queue.push(rng.uniform(),
                 {simcore::kTagArrival, static_cast<uint64_t>(i)});
    }
    while (!queue.empty()) {
      benchmark::DoNotOptimize(queue.pop().t);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueuePostPop)->Arg(1000)->Arg(10000);

// Counts arrivals and re-posts the tick one minute on, as the engine's
// metrics tick does.
class DispatchSink : public simcore::EventSink {
 public:
  explicit DispatchSink(simcore::Simulator* sim) : sim_(sim) {}
  void on_event(const simcore::EventTag& tag) override {
    ++handled;
    if (tag.kind == simcore::kTagMetricsTick) {
      sim_->schedule_at(sim_->now() + 60.0, tag);
    }
  }
  int64_t handled = 0;

 private:
  simcore::Simulator* sim_;
};

// Dispatch through the sink table: range(0) arrivals a second apart, plus
// a periodic kind that re-posts itself every 60 s.
void BM_SimulatorDispatch(benchmark::State& state) {
  int64_t events = 0;
  for (auto _ : state) {
    simcore::Simulator sim;
    DispatchSink sink(&sim);
    sim.register_sink(simcore::kTagArrival, &sink);
    sim.register_sink(simcore::kTagMetricsTick, &sink);
    for (int64_t i = 0; i < state.range(0); ++i) {
      sim.schedule_at(static_cast<double>(i),
                      {simcore::kTagArrival, static_cast<uint64_t>(i)});
    }
    sim.schedule_at(60.0, {simcore::kTagMetricsTick});
    sim.run_until(static_cast<double>(state.range(0) - 1));
    benchmark::DoNotOptimize(sink.handled);
    events += static_cast<int64_t>(sim.dispatched());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_SimulatorDispatch)->Arg(10000);

void BM_IterTime(benchmark::State& state) {
  perfmodel::TrainPerf perf;
  const auto cfg = perfmodel::config_1n4g();
  int c = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        perf.iter_time(perfmodel::ModelId::kWavenet, cfg, 1 + (c++ % 16)));
  }
}
BENCHMARK(BM_IterTime);

void BM_OptimalCores(benchmark::State& state) {
  perfmodel::TrainPerf perf;
  const auto cfg = perfmodel::config_1n4g();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        perf.optimal_cores(perfmodel::ModelId::kAlexnet, cfg));
  }
}
BENCHMARK(BM_OptimalCores);

void BM_ContentionResolve(benchmark::State& state) {
  perfmodel::NodeContentionModel model;
  std::vector<perfmodel::ResourceFootprint> footprints;
  for (int i = 0; i < state.range(0); ++i) {
    perfmodel::ResourceFootprint fp;
    fp.job = static_cast<cluster::JobId>(i + 1);
    fp.is_gpu_job = i % 2 == 0;
    fp.mem_bw_gbps = 5.0 + i;
    fp.llc_mb = 2.0;
    fp.bw_latency_sensitivity = 0.5;
    fp.bw_share_dependence = 0.3;
    fp.bw_bound_fraction = 0.4;
    footprints.push_back(fp);
  }
  const cluster::NodeConfig node;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.resolve(node, footprints));
  }
}
BENCHMARK(BM_ContentionResolve)->Arg(8)->Arg(32);

void BM_FindPlacement(benchmark::State& state) {
  cluster::ClusterConfig cfg;
  cfg.node_count = 80;
  cluster::Cluster cluster(cfg);
  util::Rng rng(2);
  // Partially fill the cluster so the search does real work.
  for (cluster::JobId id = 1; id <= 200; ++id) {
    const auto node = static_cast<cluster::NodeId>(rng.uniform_int(0, 79));
    (void)cluster.node(node).allocate(
        id, static_cast<int>(rng.uniform_int(1, 4)),
        static_cast<int>(rng.uniform_int(0, 1)));
  }
  const sched::PlacementRequest request{1, 2, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::find_placement(cluster, request));
  }
}
BENCHMARK(BM_FindPlacement);

void BM_SmallTraceReplay(benchmark::State& state) {
  auto cfg = sim::standard_week_trace(3);
  cfg.duration_s = 0.25 * 86400.0;
  cfg.cpu_jobs = 600;
  cfg.gpu_jobs = 300;
  const auto trace = workload::TraceGenerator(cfg).generate();
  const auto policy = static_cast<sim::Policy>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_experiment(policy, trace).completed);
  }
  state.SetLabel(sim::to_string(policy));
}
BENCHMARK(BM_SmallTraceReplay)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// The headline number behind every figure bench: wall-clock of one standard
// week replay (26,250 jobs). items_per_second is the engine's end-to-end
// events/sec (dispatched simulator events over real time).
void BM_StandardWeekReplay(benchmark::State& state) {
  const auto& trace = bench::standard_trace();
  const auto policy = static_cast<sim::Policy>(state.range(0));
  int64_t events = 0;
  for (auto _ : state) {
    const auto report = sim::run_experiment(policy, trace);
    events += static_cast<int64_t>(report.events_dispatched);
  }
  state.SetLabel(sim::to_string(policy));
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_StandardWeekReplay)
    ->Arg(0)
    ->Arg(2)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
