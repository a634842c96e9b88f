// allocator_tuning: watch the adaptive CPU allocator (Sec. V-B) work, step
// by step, on every Table-I model. For each model the program prints the
// N_start decision (category defaults, hints, history) and then the
// profiling-step trajectory until the tuner converges — first cold, then
// warm (after the owner's history is populated).
//
//   $ ./examples/allocator_tuning
#include <cstdio>

#include "coda/allocator.h"
#include "perfmodel/train_perf.h"

using namespace coda;

namespace {

void tune_once(core::AdaptiveCpuAllocator& allocator,
               const perfmodel::TrainPerf& perf, perfmodel::ModelId model,
               const workload::UserHints& hints, const char* phase) {
  workload::JobSpec spec;
  spec.tenant = 7;
  spec.kind = workload::JobKind::kGpuTraining;
  spec.model = model;
  spec.train_config = perfmodel::TrainConfig{1, 1, 0};
  spec.hints = hints;

  int cores = allocator.start_cores(spec);
  std::printf("  [%s] N_start = %d:", phase, cores);
  auto session = allocator.begin(cores);
  while (true) {
    const double util =
        perf.gpu_utilization(model, spec.train_config, cores);
    std::printf(" %d cores -> %.1f%%;", cores, 100 * util);
    auto next = allocator.step(session, util);
    if (!next.has_value()) {
      break;
    }
    cores = *next;
  }
  std::printf(" converged at %d cores in %d steps (true optimum %d)\n",
              session.current, session.steps,
              perf.optimal_cores(model, spec.train_config));
  allocator.finish(spec, session);  // records into the owner's history
}

}  // namespace

int main() {
  perfmodel::TrainPerf perf;
  std::printf("=== adaptive CPU allocation, model by model (1N1G) ===\n");
  std::printf("each ' N cores -> U%%' pair is one 90-second profiling step\n\n");
  for (perfmodel::ModelId model : perfmodel::kAllModels) {
    const auto& params = perfmodel::model_params(model);
    std::printf("%s (%s): defaults say start at %d\n", params.name,
                perfmodel::to_string(params.category),
                perfmodel::default_start_cores(params.category));
    core::HistoryLog history;
    core::AdaptiveCpuAllocator allocator(core::AllocatorConfig{}, &history);

    workload::UserHints hints;
    hints.pipelined = params.pipelined;
    hints.large_weights = params.weights_gb > 0.2;
    hints.complex_prep = params.prep_work_core_s / params.gpu_time_s > 4.0;

    tune_once(allocator, perf, model, hints, "cold ");
    tune_once(allocator, perf, model, hints, "warm ");
    std::printf("\n");
  }
  return 0;
}
