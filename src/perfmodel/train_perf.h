// Analytic training-performance model: iteration time, GPU utilization,
// throughput and shared-resource demands for a DNN job as a function of its
// model, its training configuration (aNbG, batch size) and the CPU cores
// allocated to it.
//
// Core structure (paper Sec. IV-A, Fig. 4): each iteration pipelines a
// CPU-side data-preparation stage against the GPU compute stage, so
//
//   prep_time(c) = prep_serial + prep_work / min(c, parallel_limit)
//   iter_time(c) = max(gpu_phase, prep_time(c)) + overhead      (pipelined)
//   gpu_util(c)  = gpu_phase / iter_time(c)  (x slight over-allocation decay)
//
// The optimal core count is the knee where prep drops below the GPU phase —
// allocating more cores no longer helps, matching Fig. 3's rise-then-plateau
// curves and the allocator's stopping rule.
//
// Hot path (see DESIGN.md "Hot path & memoization"): every engine rate
// update funnels through iter_time / gpu_utilization, so the model keeps a
// small interned table of per-(model, TrainConfig) invariants (batch-ratio
// powers, effective prep work, uncontended GPU phase, the uncontended knee
// and optimum) and memoizes full evaluations on (cores, exact contention
// factor bits). Memoization is always on. Its results are bit-for-bit
// identical to the reference arithmetic, which stays public as the ref_*
// methods; tests/perf_equivalence_test.cpp asserts equality across the
// model zoo. An instance is NOT thread-safe (the caches mutate on const
// evaluations); every engine/scheduler owns its own instance, which matches
// how the parallel runner shards experiments across threads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "perfmodel/dnn_model.h"

namespace coda::perfmodel {

// Training configuration in the paper's aNbG notation.
struct TrainConfig {
  int nodes = 1;          // a: number of servers
  int gpus_per_node = 1;  // b / a: GPUs used on each server
  int batch_size = 0;     // 0 => the model's default batch size
  double net_gbps = 1.25; // inter-node link, GB/s (paper: 10 Gb/s Infiniband)

  int total_gpus() const { return nodes * gpus_per_node; }
  // "1N4G"-style label used in tables.
  std::string name() const;
};

// Convenience constructors for the configurations the paper evaluates.
TrainConfig config_1n1g(int batch_size = 0);
TrainConfig config_1n4g(int batch_size = 0);
// Canonical multi-node configuration (2 nodes x 2 GPUs); see DESIGN.md.
TrainConfig config_2n4g(int batch_size = 0);

// Externally-imposed slowdowns from node-level shared-resource contention,
// produced by NodeContentionModel (contention.h). Defaults mean "no
// contention".
struct ContentionFactors {
  double prep_inflation = 1.0;  // multiplies the CPU prep stage (>= 1)
  double gpu_inflation = 1.0;   // multiplies the GPU phase (PCIe pressure)
};

class TrainPerf {
 public:
  // Memoization telemetry; surfaced as perf_cache_* metric counters by the
  // simulation engine and printed by bench_engine_micro.
  struct CacheStats {
    uint64_t hits = 0;             // full evaluations served from the memo
    uint64_t misses = 0;           // full evaluations computed and stored
    uint64_t invariant_builds = 0; // distinct (model, config) entries built
    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }
  };

  TrainPerf() = default;

  // CPU data-preparation stage time per iteration on one node (seconds),
  // given `cores` allocated on that node.
  double prep_time(ModelId id, const TrainConfig& cfg, int cores,
                   const ContentionFactors& contention = {}) const;

  // GPU compute phase per iteration, including multi-node gradient
  // synchronization slowdown and PCIe-pressure inflation.
  double gpu_phase_time(ModelId id, const TrainConfig& cfg,
                        const ContentionFactors& contention = {}) const;

  // Wall-clock time per training iteration.
  double iter_time(ModelId id, const TrainConfig& cfg, int cores,
                   const ContentionFactors& contention = {}) const;

  // GPU utilization in [0, 1]: fraction of the iteration the GPU computes,
  // with a slight decay past the optimum (Fig. 3: "drops slightly" when a
  // job holds more cores than it needs).
  double gpu_utilization(ModelId id, const TrainConfig& cfg, int cores,
                         const ContentionFactors& contention = {}) const;

  // Iterations per second (per job, not per GPU).
  double throughput(ModelId id, const TrainConfig& cfg, int cores,
                    const ContentionFactors& contention = {}) const;

  // Samples (sequences/images/audio snippets) per second.
  double samples_per_second(ModelId id, const TrainConfig& cfg, int cores,
                            const ContentionFactors& contention = {}) const;

  // Peak DRAM bandwidth demand on ONE node (GB/s) when the job runs with
  // `cores` cores there (Fig. 6). Demand scales with the achieved data rate:
  // a core-starved job moves less data per second.
  double mem_bw_demand_gbps(ModelId id, const TrainConfig& cfg,
                            int cores) const;

  // Average PCIe bandwidth demand on one node (GB/s), Sec. IV-C3.
  double pcie_demand_gbps(ModelId id, const TrainConfig& cfg,
                          int cores) const;

  // LLC working-set footprint on one node (MB).
  double llc_demand_mb(ModelId id, const TrainConfig& cfg) const;

  // Smallest core count that achieves within `tolerance` (relative) of the
  // best reachable GPU utilization, searching 1..max_cores. This is the
  // ground-truth optimum the adaptive allocator tries to discover online.
  int optimal_cores(ModelId id, const TrainConfig& cfg, int max_cores = 28,
                    double tolerance = 0.01) const;

  const CacheStats& cache_stats() const { return stats_; }

  // ---- reference (unmemoized) arithmetic: the original implementation ----
  // Same contracts as the methods above, recomputed from the model
  // parameters on every call without touching the caches (the knee is a
  // linear scan). The equivalence suite holds the memoized API to these bit
  // for bit; nothing on a hot path calls them.
  double ref_prep_time(ModelId id, const TrainConfig& cfg, int cores,
                       const ContentionFactors& contention = {}) const;
  double ref_gpu_phase_time(ModelId id, const TrainConfig& cfg,
                            const ContentionFactors& contention = {}) const;
  double ref_iter_time(ModelId id, const TrainConfig& cfg, int cores,
                       const ContentionFactors& contention = {}) const;
  double ref_gpu_utilization(ModelId id, const TrainConfig& cfg, int cores,
                             const ContentionFactors& contention = {}) const;
  int ref_saturation_cores(ModelId id, const TrainConfig& cfg,
                           const ContentionFactors& contention,
                           int max_cores) const;
  int ref_optimal_cores(ModelId id, const TrainConfig& cfg, int max_cores = 28,
                        double tolerance = 0.01) const;
  double ref_mem_bw_demand_gbps(ModelId id, const TrainConfig& cfg,
                                int cores) const;
  double ref_pcie_demand_gbps(ModelId id, const TrainConfig& cfg,
                              int cores) const;

 private:
  // ---- interned per-(model, config) invariants ----
  struct InvKey {
    int model = 0;
    int nodes = 0;
    int gpus_per_node = 0;
    int batch_size = 0;
    uint64_t net_bits = 0;  // bit pattern of net_gbps
    bool operator==(const InvKey& o) const {
      return model == o.model && nodes == o.nodes &&
             gpus_per_node == o.gpus_per_node &&
             batch_size == o.batch_size && net_bits == o.net_bits;
    }
  };
  struct InvKeyHash {
    size_t operator()(const InvKey& k) const;
  };

  // One full evaluation of the pipeline at (cores, contention factors).
  struct EvalKey {
    int cores = 0;
    // Exact bit patterns of the contention factors. Quantization happens
    // only in the HASH (low mantissa bits dropped so near-identical factors
    // land in the same bucket); equality is exact, so a hit can never return
    // a value computed from different inputs.
    uint64_t prep_bits = 0;
    uint64_t gpu_bits = 0;
    bool operator==(const EvalKey& o) const {
      return cores == o.cores && prep_bits == o.prep_bits &&
             gpu_bits == o.gpu_bits;
    }
  };
  struct EvalKeyHash {
    size_t operator()(const EvalKey& k) const;
  };
  struct EvalEntry {
    double prep = 0.0;
    double gpu = 0.0;
    double iter = 0.0;
    double util = 0.0;
  };

  struct Invariants {
    // Effective parallelizable prep work (batch power x multi-GPU sharing x
    // multi-node collapse) and the uncontended GPU phase, both computed with
    // the reference arithmetic so downstream expressions are bit-identical.
    double prep_work = 0.0;
    double gpu_base = 0.0;
    double mem_per_gpu = 0.0;   // mem_bw_gbps x (BS/def)^mem_bs_exp
    double pcie_per_gpu = 0.0;  // pcie_gbps x (BS/def)^mem_bs_exp
    int opt_cores = -1;         // optimal_cores(default args); -1 = unfilled
    double iter_at_opt = 0.0;   // uncontended iter_time at opt_cores
    std::unordered_map<EvalKey, EvalEntry, EvalKeyHash> evals;
  };

  const Invariants& invariants(ModelId id, const TrainConfig& cfg) const;
  const EvalEntry& evaluate(ModelId id, const TrainConfig& cfg, int cores,
                            const ContentionFactors& contention) const;
  // Closed-form/early-exit contended knee over the cached invariants;
  // bit-identical to the reference linear scan.
  int saturation_cores_fast(const ModelParams& p, const Invariants& inv,
                            const ContentionFactors& contention,
                            int max_cores) const;

  double batch_ratio(ModelId id, const TrainConfig& cfg) const;

  mutable CacheStats stats_;
  // node-based map: Invariants addresses stay stable across rehashes.
  mutable std::unordered_map<InvKey, std::unique_ptr<Invariants>, InvKeyHash>
      interned_;
  // One-entry lookup cache: evaluations cluster heavily on one (model, cfg).
  mutable InvKey last_key_;
  mutable Invariants* last_entry_ = nullptr;
};

}  // namespace coda::perfmodel
