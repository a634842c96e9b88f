// Snapshot/restore latency benchmark: how fast can codad checkpoint a live
// session, and how much faster is restarting from a snapshot than replaying
// the whole journal from t=0?
//
//   * snapshot_ms — capture the full engine+scheduler state and serialize
//                   it (what the SNAPSHOT command pays, minus the fsync)
//   * restore_ms  — parse the blob and rebuild the live session
//                   (what `codad --restore` pays at boot)
//   * replay_ms   — re-simulate from t=0 to the same cut point (what a
//                   restart without snapshots pays)
//
// The cut point is 70% through the trace window — late enough that the
// cluster is fully populated, the worst case for snapshot size and the
// best case for replay cost. A restored engine must agree with the cut
// engine on (clock, dispatch count) or the numbers are meaningless; the
// binary fails loudly on divergence.
//
// Output: a table plus one machine-readable line — "BENCH_SNAPSHOT_JSON
// {...}" — for scripts/run_benches.sh.
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "state/snapshot.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  using namespace coda;

  bench::print_banner(
      "snapshot",
      "session snapshot/restore latency vs full-journal replay");

  const auto& trace = bench::standard_trace();
  const sim::Policy policy = sim::Policy::kCoda;

  // The live session to checkpoint.
  sim::Session live = sim::Session::start(policy, trace, {});
  const sim::ExperimentConfig& config = live.config;
  const double horizon = config.horizon_s;
  const double cut_vt = 0.7 * horizon;
  sim::ClusterEngine& engine = *live.engine;
  engine.run_until(cut_vt);

  state::SnapshotMeta meta;
  meta.seq = 1;
  meta.virtual_time = engine.sim().now();
  meta.dispatched = engine.sim().dispatched();

  auto t0 = Clock::now();
  auto blob = state::capture_snapshot(meta, "bench", engine,
                                      *live.scheduler.scheduler);
  const double snapshot_ms = ms_since(t0);
  if (!blob.ok()) {
    std::fprintf(stderr, "capture failed: %s\n",
                 blob.error().message.c_str());
    return 1;
  }

  t0 = Clock::now();
  auto parsed = state::parse_snapshot(*blob);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 parsed.error().message.c_str());
    return 1;
  }
  auto restored = state::restore_session(*parsed, policy, config, trace);
  const double restore_ms = ms_since(t0);
  if (!restored.ok()) {
    std::fprintf(stderr, "restore failed: %s\n",
                 restored.error().message.c_str());
    return 1;
  }
  if (restored->engine->sim().now() != engine.sim().now() ||
      restored->engine->sim().dispatched() != engine.sim().dispatched()) {
    std::fprintf(stderr, "restored session diverged from the original\n");
    return 1;
  }

  // The alternative a crashed daemon faces without a snapshot: replay the
  // journal — i.e. re-simulate every event — back to the same cut.
  t0 = Clock::now();
  sim::Session replayed = sim::Session::start(policy, trace, config);
  replayed.engine->run_until(cut_vt);
  const double replay_ms = ms_since(t0);

  const double speedup = restore_ms > 0.0 ? replay_ms / restore_ms : 0.0;
  std::printf("cut point          %.0f s of %.0f s (%zu events)\n", cut_vt,
              horizon, static_cast<size_t>(meta.dispatched));
  std::printf("snapshot size      %zu bytes\n", blob->size());
  std::printf("snapshot capture   %10.2f ms\n", snapshot_ms);
  std::printf("restore            %10.2f ms\n", restore_ms);
  std::printf("full replay        %10.2f ms\n", replay_ms);
  std::printf("restore speedup    %10.1fx\n\n", speedup);

  std::printf(
      "BENCH_SNAPSHOT_JSON {\"snapshot_ms\": %.3f, \"restore_ms\": %.3f, "
      "\"replay_ms\": %.3f, \"restore_speedup\": %.2f, "
      "\"snapshot_bytes\": %zu, \"events_at_cut\": %zu}\n",
      snapshot_ms, restore_ms, replay_ms, speedup, blob->size(),
      static_cast<size_t>(meta.dispatched));

  if (restore_ms <= 0.0 || replay_ms <= 0.0) {
    std::fprintf(stderr, "bench_snapshot: timers did not move\n");
    return 1;
  }
  return 0;
}
