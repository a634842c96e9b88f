// Table II — "Overhead of identifying the optimal core number": profiling
// steps the adaptive allocator spends per model and the training iterations
// completed during profiling (each step lasts 90 seconds). The paper reports
// 3-4 steps per model (~6 minutes) and 28-260 iterations.
#include <iostream>
#include <map>

#include "bench_common.h"
#include "coda/allocator.h"
#include "perfmodel/train_perf.h"

using namespace coda;
using perfmodel::TrainPerf;

namespace {

struct Overhead {
  int steps = 0;
  int final_cores = 0;
  double iterations = 0.0;
};

Overhead measure(core::AdaptiveCpuAllocator& allocator,
                 const TrainPerf& perf, perfmodel::ModelId m,
                 const workload::UserHints& hints) {
  workload::JobSpec spec;
  spec.kind = workload::JobKind::kGpuTraining;
  spec.model = m;
  spec.hints = hints;
  int cores = allocator.start_cores(spec);
  auto session = allocator.begin(cores);
  Overhead out;
  while (!session.converged()) {
    const double util =
        perf.gpu_utilization(m, spec.train_config, cores);
    // Iterations trained while profiling at this core count (90 s steps).
    out.iterations += allocator.config().profile_step_s /
                      perf.iter_time(m, spec.train_config, cores);
    auto next = allocator.step(session, util);
    if (!next.has_value()) {
      break;
    }
    cores = *next;
  }
  out.steps = session.steps;
  out.final_cores = session.current;
  allocator.finish(spec, session);
  return out;
}

}  // namespace

int main() {
  bench::print_banner("Table II",
                      "overhead of identifying the optimal core number");
  TrainPerf perf;
  // Paper rows for comparison.
  const std::map<perfmodel::ModelId, std::pair<int, int>> paper = {
      {perfmodel::ModelId::kAlexnet, {4, 260}},
      {perfmodel::ModelId::kVgg16, {4, 70}},
      {perfmodel::ModelId::kInceptionV3, {3, 180}},
      {perfmodel::ModelId::kResnet50, {3, 150}},
      {perfmodel::ModelId::kBiAttFlow, {4, 35}},
      {perfmodel::ModelId::kTransformer, {3, 260}},
      {perfmodel::ModelId::kWavenet, {3, 28}},
      {perfmodel::ModelId::kDeepSpeech, {3, 45}},
  };

  util::Table table("Table II | profiling steps and iterations");
  table.set_header({"model", "steps (paper)", "steps cold", "steps warm",
                    "iters/step (paper avg)", "iters (cold total)",
                    "N_opt found"});
  for (perfmodel::ModelId m : perfmodel::kAllModels) {
    // Cold start: category defaults + the user's optional hints.
    core::HistoryLog cold_history;
    core::AdaptiveCpuAllocator cold(core::AllocatorConfig{}, &cold_history);
    const auto& p = perfmodel::model_params(m);
    workload::UserHints hints;
    hints.pipelined = p.pipelined;
    hints.large_weights = p.weights_gb > 0.2;
    hints.complex_prep = p.prep_work_core_s / p.gpu_time_s > 4.0;
    const auto cold_result = measure(cold, perf, m, hints);

    // Warm start: the owner ran this category before (Sec. V-B1's common
    // case — "a user tends to submit similar training jobs").
    core::HistoryLog warm_history;
    warm_history.record(core::HistoryRecord{
        0, p.category, m, 1, 1, perf.optimal_cores(m, {1, 1, 0})});
    core::AdaptiveCpuAllocator warm(core::AllocatorConfig{}, &warm_history);
    const auto warm_result = measure(warm, perf, m, {});

    table.add_row({
        p.name,
        std::to_string(paper.at(m).first),
        std::to_string(cold_result.steps),
        std::to_string(warm_result.steps),
        std::to_string(paper.at(m).second),
        bench::num(cold_result.iterations, 0),
        std::to_string(cold_result.final_cores),
    });
  }
  table.add_note("each profiling step lasts 90 simulated seconds; the paper "
                 "finds the optimum within 4 steps (~6 minutes), worthwhile "
                 "because 68.5% of training jobs run > 1 hour");
  table.print(std::cout);
  return 0;
}
