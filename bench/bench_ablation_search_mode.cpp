// Ablation — tuner search strategy: the paper's jump-based hill climb
// (linear-extrapolation jumps, halving descent, bisection) vs a classic
// +/-1 stepwise climb vs a minimal one-shot jump. Measured against the
// analytic model from every cold start, with and without probe noise.
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "coda/allocator.h"
#include "perfmodel/train_perf.h"
#include "util/rng.h"

using namespace coda;

namespace {

struct Outcome {
  double mean_steps = 0.0;
  double mean_abs_error = 0.0;
  double frac_within_1 = 0.0;
};

Outcome evaluate(core::SearchMode mode, double noise_sigma) {
  perfmodel::TrainPerf perf;
  util::Rng rng(99);
  util::RunningStats steps;
  util::RunningStats error;
  int within = 0;
  int cases = 0;
  for (perfmodel::ModelId m : perfmodel::kAllModels) {
    for (const auto cfg : {perfmodel::TrainConfig{1, 1, 0},
                           perfmodel::TrainConfig{1, 2, 0},
                           perfmodel::TrainConfig{1, 4, 0}}) {
      core::HistoryLog history;
      core::AllocatorConfig acfg;
      acfg.search_mode = mode;
      core::AdaptiveCpuAllocator allocator(acfg, &history);
      workload::JobSpec spec;
      spec.kind = workload::JobKind::kGpuTraining;
      spec.model = m;
      spec.train_config = cfg;
      int cores = allocator.start_cores(spec);
      auto session = allocator.begin(cores);
      while (!session.converged()) {
        double util = perf.gpu_utilization(m, cfg, cores);
        if (noise_sigma > 0.0) {
          util = std::clamp(util * (1.0 + rng.normal(0.0, noise_sigma)),
                            0.0, 1.0);
        }
        auto next = allocator.step(session, util);
        if (!next.has_value()) {
          break;
        }
        cores = *next;
      }
      const int found = session.current;
      const int opt = perf.optimal_cores(m, cfg);
      steps.add(session.steps);
      error.add(std::abs(found - opt));
      within += std::abs(found - opt) <= 1 ? 1 : 0;
      ++cases;
    }
  }
  return Outcome{steps.mean(), error.mean(),
                 static_cast<double>(within) / cases};
}

}  // namespace

int main() {
  bench::print_banner("Ablation",
                      "tuner search strategy (24 model x config cold starts)");
  util::Table table("search-mode comparison");
  table.set_header({"mode", "noise", "mean steps", "mean |error| cores",
                    "within +/-1"});
  for (auto mode : {core::SearchMode::kHillClimb, core::SearchMode::kStepwise,
                    core::SearchMode::kOneShot}) {
    for (double sigma : {0.0, 0.02}) {
      const auto out = evaluate(mode, sigma);
      table.add_row({to_string(mode), bench::pct(sigma),
                     bench::num(out.mean_steps, 1),
                     bench::num(out.mean_abs_error, 2),
                     bench::pct(out.frac_within_1)});
    }
  }
  table.add_note("with the Sec. V-B1 start rules every mode begins near the "
                 "optimum, so noiseless accuracy ties; the jump-based climb "
                 "wins on steps for far-off starts (see "
                 "bench_ablation_nstart) and degrades most gracefully under "
                 "probe noise");
  table.print(std::cout);
  return 0;
}
