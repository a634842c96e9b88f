// Engine hot-path micro-benchmark: replays the standard trace through a live
// ClusterEngine (no report cache, no Runner) and reports the counters that
// the memoized perf model and the incremental recompute path are supposed to
// move:
//
//   * events/sec            — dispatch throughput over the measured window
//   * recomputes/sec        — contention re-resolutions (dirty-set drains)
//   * perf cache hit rate   — TrainPerf memo effectiveness
//   * reschedule skip rate  — finish events kept because the rate was
//                             bit-identical after a neighbor recompute
//   * steady-state allocs   — heap allocations per dispatched event in the
//                             measured window, via a counting operator new
//
// The first 20% of the trace window is warmup (cold caches, ramping
// population); measurement covers the remainder plus the drain. `--fast`
// (or CODA_FAST=1) switches to the 1-day smoke trace so the binary can run
// as a ctest case; full mode replays the one-week standard trace.
//
// Output is a human-readable table per policy plus one machine-readable
// line — "BENCH_ENGINE_MICRO_JSON {...}" — for scripts/run_benches.sh.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_common.h"
#include "sim/engine.h"
#include "sim/experiment.h"

// ------------------------------------------------------------- alloc hook
// Counting global allocator: every operator-new variant funnels through
// malloc with a relaxed tally. Only the deltas between snapshots matter, so
// allocations from static init / stdio are harmless.
namespace {
std::atomic<unsigned long long> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace coda;

double wall_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct MicroResult {
  const char* policy = "";
  size_t events = 0;           // measured-window dispatches
  double wall_s = 0.0;         // measured-window wall clock
  unsigned long long allocs = 0;  // measured-window heap allocations
  uint64_t recomputes = 0;
  uint64_t rate_updates = 0;
  uint64_t reschedules = 0;
  uint64_t reschedules_skipped = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
  double recomputes_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(recomputes) / wall_s : 0.0;
  }
  double hit_rate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
  double skip_rate() const {
    const uint64_t total = reschedules + reschedules_skipped;
    return total > 0 ? static_cast<double>(reschedules_skipped) / total : 0.0;
  }
  double allocs_per_event() const {
    return events > 0 ? static_cast<double>(allocs) / events : 0.0;
  }
};

MicroResult replay(sim::Policy policy,
                   const std::vector<workload::JobSpec>& trace) {
  sim::Session session = sim::Session::start(policy, trace, {});
  const sim::ExperimentConfig& config = session.config;
  const double horizon = config.horizon_s;
  sim::ClusterEngine& engine = *session.engine;

  // Warmup: let the population ramp and the perf-model caches fill.
  engine.run_until(0.2 * horizon);

  const size_t events0 = engine.sim().dispatched();
  const sim::ClusterEngine::EngineStats stats0 = engine.engine_stats();
  const perfmodel::TrainPerf::CacheStats cache0 = engine.perf().cache_stats();
  const unsigned long long allocs0 =
      g_allocs.load(std::memory_order_relaxed);
  const double t0 = wall_seconds();

  engine.run_until(horizon);
  engine.drain(horizon + config.drain_slack_s);

  const double t1 = wall_seconds();
  const unsigned long long allocs1 =
      g_allocs.load(std::memory_order_relaxed);
  const sim::ClusterEngine::EngineStats& stats1 = engine.engine_stats();
  const perfmodel::TrainPerf::CacheStats& cache1 = engine.perf().cache_stats();

  MicroResult r;
  r.policy = sim::to_string(policy);
  r.events = engine.sim().dispatched() - events0;
  r.wall_s = t1 - t0;
  r.allocs = allocs1 - allocs0;
  r.recomputes = stats1.node_recomputes - stats0.node_recomputes;
  r.rate_updates = stats1.rate_updates - stats0.rate_updates;
  r.reschedules = stats1.reschedules - stats0.reschedules;
  r.reschedules_skipped =
      stats1.reschedules_skipped - stats0.reschedules_skipped;
  r.cache_hits = cache1.hits - cache0.hits;
  r.cache_misses = cache1.misses - cache0.misses;
  return r;
}

void print_result(const MicroResult& r) {
  std::printf("policy=%s\n", r.policy);
  std::printf("  events            %12zu  (%.0f events/s)\n", r.events,
              r.events_per_sec());
  std::printf("  node recomputes   %12llu  (%.0f recomputes/s)\n",
              static_cast<unsigned long long>(r.recomputes),
              r.recomputes_per_sec());
  std::printf("  rate updates      %12llu\n",
              static_cast<unsigned long long>(r.rate_updates));
  std::printf("  reschedule skips  %12llu  (%.1f%% of finish updates)\n",
              static_cast<unsigned long long>(r.reschedules_skipped),
              100.0 * r.skip_rate());
  std::printf("  perf cache        %12llu hits / %llu misses  (%.2f%% hit)\n",
              static_cast<unsigned long long>(r.cache_hits),
              static_cast<unsigned long long>(r.cache_misses),
              100.0 * r.hit_rate());
  std::printf("  heap allocations  %12llu  (%.2f per event)\n", r.allocs,
              r.allocs_per_event());
  std::printf("  wall clock        %12.3f s\n\n", r.wall_s);
}

}  // namespace

int main() {
  bench::print_banner(
      "engine_micro",
      "engine hot-path throughput: events/sec, recompute and cache "
      "counters, steady-state allocations");

  const auto& trace = bench::standard_trace();

  // FIFO first (pure engine churn, no adaptive allocator), then CODA (the
  // full paper pipeline: profiling resizes, eliminator probes, MBA caps).
  // The CODA row is the headline and feeds BENCH_runtime.json.
  const MicroResult fifo = replay(sim::Policy::kFifo, trace);
  print_result(fifo);
  const MicroResult coda = replay(sim::Policy::kCoda, trace);
  print_result(coda);

  std::printf(
      "BENCH_ENGINE_MICRO_JSON {\"policy\": \"%s\", "
      "\"events\": %zu, \"wall_s\": %.6f, \"events_per_sec\": %.1f, "
      "\"recomputes_per_sec\": %.1f, \"cache_hit_rate\": %.6f, "
      "\"reschedule_skip_rate\": %.6f, \"allocs_per_event\": %.4f}\n",
      coda.policy, coda.events, coda.wall_s, coda.events_per_sec(),
      coda.recomputes_per_sec(), coda.hit_rate(), coda.skip_rate(),
      coda.allocs_per_event());

  // Sanity floor so the ctest wiring (--fast) fails loudly if the engine
  // stopped dispatching or the counters stopped moving.
  if (coda.events == 0 || coda.cache_hits + coda.cache_misses == 0) {
    std::fprintf(stderr, "engine_micro: counters did not move\n");
    return 1;
  }
  return 0;
}
