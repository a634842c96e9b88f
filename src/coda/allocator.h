// Adaptive CPU allocator (paper Sec. V-B): picks N_start for a new DNN
// training job, then hill-climbs on measured GPU utilization to the optimal
// core count N_opt in a handful of 90-second profiling steps.
//
// The allocator is a pure decision engine and keeps no per-job state. A
// tuning session is a value its caller holds: begin() returns one, step()
// and settle() advance it, and finish() records the converged count into
// the owner's history. The CODA scheduler keeps each running GPU job's
// session in that job's record, feeds it measured utilizations and applies
// the core-count changes it asks for; benches and tests drive a session
// straight against the performance model.
#pragma once

#include <optional>

#include "coda/history.h"
#include "util/fields.h"
#include "workload/job.h"

namespace coda::core {

// How the tuner searches the core-count axis (ablation of Sec. V-B2's
// design; bench_ablation_search_mode compares them).
enum class SearchMode {
  kHillClimb = 0,  // the paper's method: linear-extrapolation jumps +
                   // halving descent + bisection (default)
  kStepwise,       // classic +/-1 hill climb, no jumps
  kOneShot,        // probe, one linear jump, settle — minimal profiling
};

const char* to_string(SearchMode mode);

struct AllocatorConfig {
  SearchMode search_mode = SearchMode::kHillClimb;
  double profile_step_s = 90.0;  // paper Sec. VI-F: 90 s per profiling step
  int max_profile_steps = 10;    // hard stop for the tuning session
  // Relative utilization improvement below which a change "does not improve
  // GPU utilization" (stopping rule of Sec. V-B2).
  double improvement_eps = 0.004;
  // Utilization treated as "the plateau": used by the linear-extrapolation
  // jump (Sec. V-B: "there is a linear relationship between the GPU
  // utilization and the CPU number allocated to the job"). Models top out
  // at different ceilings (55-78% measured), so this is the cluster-wide
  // estimate; overshoot costs one trim step, undershoot one more jump.
  double plateau_util = 0.65;
  int min_cores = 1;
  int max_cores = 26;  // leave headroom on a 28-core node
};

class AdaptiveCpuAllocator {
 public:
  AdaptiveCpuAllocator(const AllocatorConfig& config, HistoryLog* history)
      : config_(config), history_(history) {}

  const AllocatorConfig& config() const { return config_; }

  // N_start for a job (Sec. V-B1): owner history in the category first;
  // otherwise the category default (CV 3, NLP 5, Speech 5); adjusted by the
  // optional user hints (-1 pipelined, -1 large weights, +1 complex prep).
  // When not even the category is known, falls back to the owner's history
  // across categories, then to a conservative default.
  int start_cores(const workload::JobSpec& spec) const;

  // ---- tuning session ----

  enum class Phase {
    kProbeStart,   // waiting for the first measurement at N_start
    kProbeDown,    // trying N_start - 1 (paper: evaluate smaller first)
    kDescend,      // walking down through a flat plateau (over-allocated)
    kBinaryAscend, // bisecting between a bad low point and a good high point
    kAscend,       // walking/jumping up (under-provisioned)
    kTrim,         // at plateau after ascending: try one core fewer
    kDone,         // converged: `current` is final
  };

  struct Session {
    Phase phase = Phase::kProbeStart;
    int current = 1;       // cores currently allocated
    int steps = 0;         // profiling steps consumed (Table II overhead)
    double start_util = 0; // utilization measured at N_start
    int best_cores = 1;    // best configuration seen so far
    double best_util = 0;
    // kDescend / kBinaryAscend bookkeeping.
    int good_high = 0;     // known-good core count above
    int bad_low = 0;       // known-bad core count below

    bool converged() const { return phase == Phase::kDone; }

    // An `as` row after the job id.
    friend auto fields(util::FieldsOf<Session> auto& s) {
      return std::tie(s.phase, s.current, s.steps, s.start_util,
                      s.best_cores, s.best_util, s.good_high, s.bad_low);
    }
  };

  // A session for a job that just started with `start` cores.
  Session begin(int start) const;

  // Reports the utilization measured over the last profiling step at the
  // session's current core count. Returns the core count to try next, or
  // nullopt when the session converged (`current` is final). Each call is
  // one profiling step.
  std::optional<int> step(Session& s, double measured_util) const;

  // Force-converges the session at `cores` (used when a suggested resize
  // cannot be applied because the node has no free cores).
  void settle(Session& s, int cores) const;

  // Ends a session of `spec`'s job (it converged or the job finished):
  // records N_opt into the history log when the session took a step.
  void finish(const workload::JobSpec& spec, const Session& s);

 private:
  std::optional<int> transition(Session& s, double util) const;

  AllocatorConfig config_;
  HistoryLog* history_;
};

}  // namespace coda::core
