#include "coda/allocator.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace coda::core {

namespace {

perfmodel::ModelCategory category_of(const workload::JobSpec& spec) {
  return perfmodel::model_params(spec.model).category;
}

}  // namespace

const char* to_string(SearchMode mode) {
  switch (mode) {
    case SearchMode::kHillClimb:
      return "hill-climb";
    case SearchMode::kStepwise:
      return "stepwise";
    case SearchMode::kOneShot:
      return "one-shot";
  }
  return "?";
}

int AdaptiveCpuAllocator::start_cores(const workload::JobSpec& spec) const {
  CODA_ASSERT(spec.is_gpu_job());
  int start = 0;
  bool from_history = false;
  if (spec.hints.category_known) {
    const auto category = category_of(spec);
    if (auto hist = history_->start_point(spec.tenant, category,
                                          spec.train_config.nodes,
                                          spec.train_config.gpus_per_node)) {
      start = *hist;
      from_history = true;
    } else {
      // Category defaults scale with the local GPU count: the per-GPU data
      // pipeline replicates per GPU (Sec. IV-B2's linear relationship).
      start = perfmodel::default_start_cores(category) *
              spec.train_config.gpus_per_node;
    }
  } else if (auto hist = history_->start_point_any(spec.tenant)) {
    // Worst case (Sec. V-B1): no category given — the owner's historical
    // execution information alone is "sufficient to find a reasonable
    // N_start".
    start = *hist;
    from_history = true;
  } else {
    start = 4 * spec.train_config.gpus_per_node;  // conservative default
  }
  // Optional-hint adjustments (Sec. V-B1) refine the *estimated* start;
  // a history-derived start already reflects the owner's converged optimum
  // and is used as-is.
  if (!from_history) {
    if (spec.hints.pipelined) {
      start -= 1;
    }
    if (spec.hints.large_weights) {
      start -= 1;
    }
    if (spec.hints.complex_prep) {
      start += 1;
    }
  }
  return std::clamp(start, config_.min_cores, config_.max_cores);
}

AdaptiveCpuAllocator::Session AdaptiveCpuAllocator::begin(int start) const {
  Session s;
  s.current = std::clamp(start, config_.min_cores, config_.max_cores);
  return s;
}

std::optional<int> AdaptiveCpuAllocator::step(Session& s,
                                              double measured_util) const {
  CODA_ASSERT(s.phase != Phase::kDone);
  ++s.steps;

  // Track the best configuration: highest utilization wins; within eps of
  // the maximum, fewer cores win (the "just-enough" objective).
  const double eps = config_.improvement_eps;
  if (measured_util > s.best_util * (1.0 + eps) || s.best_cores == 0) {
    s.best_util = std::max(s.best_util, measured_util);
    s.best_cores = s.current;
  } else if (measured_util >= s.best_util * (1.0 - eps) &&
             s.current < s.best_cores) {
    s.best_cores = s.current;
  }
  s.best_util = std::max(s.best_util, measured_util);

  auto next = transition(s, measured_util);
  if (!next.has_value() || s.steps >= config_.max_profile_steps) {
    // Converged (or step budget exhausted): settle on the best seen.
    s.current = s.best_cores;
    s.phase = Phase::kDone;
    return std::nullopt;
  }
  CODA_ASSERT(*next >= config_.min_cores && *next <= config_.max_cores);
  CODA_ASSERT(*next != s.current);
  s.current = *next;
  return next;
}

std::optional<int> AdaptiveCpuAllocator::transition(Session& s,
                                                    double util) const {
  const double eps = config_.improvement_eps;
  const auto linear_jump_up = [&](int from, double from_util) {
    if (config_.search_mode == SearchMode::kStepwise) {
      return std::min(from + 1, config_.max_cores);  // no jumps
    }
    // Linear-relationship extrapolation (Sec. V-B): in the rising region
    // utilization is ~proportional to cores, so jump straight toward the
    // plateau instead of stepping one core at a time.
    const int target = static_cast<int>(
        std::lround(from * config_.plateau_util / std::max(from_util, 1e-3)));
    return std::clamp(target, from + 1, config_.max_cores);
  };
  const auto descend_step = [&](int from) {
    return config_.search_mode == SearchMode::kStepwise
               ? std::max(config_.min_cores, from - 1)
               : std::max(config_.min_cores, from / 2);
  };

  switch (s.phase) {
    case Phase::kProbeStart: {
      s.start_util = util;
      if (s.current > config_.min_cores) {
        // Paper: "The CPU allocator first evaluates the smaller core number."
        s.phase = Phase::kProbeDown;
        return s.current - 1;
      }
      if (s.current >= config_.max_cores || util >= config_.plateau_util) {
        return std::nullopt;
      }
      s.phase = Phase::kAscend;
      return linear_jump_up(s.current, util);
    }

    case Phase::kProbeDown: {
      if (util >= s.start_util * (1.0 - eps)) {
        // Fewer cores did not hurt: the job was over-allocated; descend.
        s.good_high = s.current;
        const int next = descend_step(s.current);
        if (next == s.current) {
          return std::nullopt;
        }
        s.phase = Phase::kDescend;
        return next;
      }
      // Fewer cores hurt: N_start sits at or below the knee.
      if (s.start_util >= config_.plateau_util ||
          s.current + 1 >= config_.max_cores) {
        return std::nullopt;  // N_start itself is optimal
      }
      s.phase = Phase::kAscend;
      return linear_jump_up(s.current + 1, s.start_util);
    }

    case Phase::kDescend: {
      if (util >= s.best_util * (1.0 - eps)) {
        // Still on the plateau: keep descending.
        s.good_high = s.current;
        const int next = descend_step(s.current);
        if (next == s.current) {
          return std::nullopt;
        }
        return next;
      }
      // Fell off the plateau: bisect between the bad low and the good high.
      s.bad_low = s.current;
      if (s.good_high - s.bad_low <= 1) {
        return std::nullopt;
      }
      s.phase = Phase::kBinaryAscend;
      return (s.bad_low + s.good_high + 1) / 2;
    }

    case Phase::kBinaryAscend: {
      if (util >= s.best_util * (1.0 - eps)) {
        s.good_high = s.current;
      } else {
        s.bad_low = s.current;
      }
      if (s.good_high - s.bad_low <= 1) {
        return std::nullopt;
      }
      const int mid = (s.bad_low + s.good_high + 1) / 2;
      if (mid == s.current) {
        return std::nullopt;
      }
      return mid;
    }

    case Phase::kAscend: {
      const bool improved = util >= s.start_util * (1.0 + eps) &&
                            s.current == s.best_cores;
      if (!improved) {
        return std::nullopt;  // jump did not help; settle on best
      }
      if (config_.search_mode == SearchMode::kOneShot) {
        return std::nullopt;  // one jump only: settle where it landed
      }
      if (util >= config_.plateau_util) {
        // Reached the plateau: try to trim one core.
        if (s.current - 1 >= config_.min_cores) {
          s.phase = Phase::kTrim;
          return s.current - 1;
        }
        return std::nullopt;
      }
      if (s.current >= config_.max_cores) {
        return std::nullopt;
      }
      s.start_util = util;  // new reference for the next improvement test
      return linear_jump_up(s.current, util);
    }

    case Phase::kTrim: {
      if (util >= s.best_util * (1.0 - eps)) {
        if (s.current - 1 >= config_.min_cores) {
          return s.current - 1;  // still as good: keep trimming
        }
      }
      return std::nullopt;  // trimming hurt (or hit the floor): settle
    }

    case Phase::kDone:
      break;
  }
  CODA_UNREACHABLE("bad allocator phase");
}

void AdaptiveCpuAllocator::settle(Session& s, int cores) const {
  s.current = cores;
  s.best_cores = cores;
  s.phase = Phase::kDone;
}

void AdaptiveCpuAllocator::finish(const workload::JobSpec& spec,
                                  const Session& s) {
  if (s.steps > 0 && spec.is_gpu_job()) {
    history_->record(HistoryRecord{
        spec.tenant, category_of(spec), spec.model, spec.train_config.nodes,
        spec.train_config.gpus_per_node,
        s.best_cores > 0 ? s.best_cores : s.current});
  }
}

}  // namespace coda::core
