// Node-level shared-resource contention resolution.
//
// Given every co-located job's footprint on one node (memory bandwidth, LLC,
// PCIe), computes each job's achieved bandwidth and slowdown factors. This
// is the simulated stand-in for the physical DRAM/LLC/PCIe arbitration the
// paper measures in Sec. IV-C:
//   * bandwidth is shared proportionally once total demand exceeds capacity;
//   * queueing delay grows with node pressure and hurts latency-sensitive
//     prep pipelines (NLP models, Fig. 7) even when their own demand is tiny;
//   * LLC contention is modelled but near-zero for every model (paper);
//   * PCIe pressure inflates the GPU phase only near saturation (Sec. IV-C3).
#pragma once

#include <vector>

#include "cluster/node.h"
#include "perfmodel/train_perf.h"
#include "util/fields.h"

namespace coda::perfmodel {

// One job's demand on a node's shared resources, plus its sensitivities.
struct ResourceFootprint {
  cluster::JobId job = 0;
  bool is_gpu_job = false;

  double mem_bw_gbps = 0.0;      // unconstrained DRAM bandwidth demand
  double mem_bw_cap_gbps = -1.0; // MBA throttle cap; < 0 means unthrottled
  double pcie_gbps = 0.0;
  double llc_mb = 0.0;

  // GPU-job sensitivities (from ModelParams); ignored for CPU jobs.
  double bw_latency_sensitivity = 0.0;
  double bw_share_dependence = 0.0;
  double llc_sensitivity = 0.0;

  // CPU-job property: fraction of its work that is bandwidth-bound (Amdahl
  // argument of the throttling slowdown). Ignored for GPU jobs.
  double bw_bound_fraction = 0.0;
};

// Per-job outcome of contention resolution.
struct JobContention {
  cluster::JobId job = 0;
  double achieved_bw_gbps = 0.0;   // what MBM would report for this job
  ContentionFactors factors;       // feed into TrainPerf for GPU jobs
  double cpu_rate_factor = 1.0;    // progress multiplier for CPU jobs

  // Engine `rj` rows.
  friend auto fields(util::FieldsOf<JobContention> auto& c) {
    return std::tie(c.job, c.achieved_bw_gbps, c.factors.prep_inflation,
                    c.factors.gpu_inflation, c.cpu_rate_factor);
  }
};

// Node-wide outcome.
struct NodeContentionReport {
  double total_demand_gbps = 0.0;  // post-throttle total demand
  double mem_pressure = 0.0;       // total_demand / node capacity
  double llc_pressure = 0.0;       // sum(llc_mb) / node LLC
  double pcie_total_gbps = 0.0;
  std::vector<JobContention> jobs; // same order as the input footprints

  // An engine `rep` row between the node id and the job count.
  friend auto fields(util::FieldsOf<NodeContentionReport> auto& r) {
    return std::tie(r.total_demand_gbps, r.mem_pressure, r.llc_pressure,
                    r.pcie_total_gbps);
  }
};

class NodeContentionModel {
 public:
  struct Params {
    // Pressure above which DRAM queueing latency starts to bite; chosen to
    // coincide with the paper's 75% eliminator threshold.
    double latency_knee_pressure = 0.75;
    // PCIe inflation starts at this fraction of link capacity and grows
    // linearly with `pcie_inflation_slope` (calibrated to the 5-10%
    // degradation of Alexnet/Resnet50 co-location, Sec. IV-C3).
    double pcie_knee_fraction = 0.8;
    double pcie_inflation_slope = 0.5;
  };

  NodeContentionModel() = default;
  explicit NodeContentionModel(const Params& params) : params_(params) {}

  const Params& params() const { return params_; }

  // Resolves contention among `footprints` on a node with `config`'s
  // capacities. Pure function of its inputs; deterministic.
  NodeContentionReport resolve(
      const cluster::NodeConfig& config,
      const std::vector<ResourceFootprint>& footprints) const;

  // Allocation-free variant: overwrites `out` in place, reusing its jobs
  // vector's capacity. The engine keeps one report per node and re-resolves
  // on every population change — this keeps that hot path off the heap.
  void resolve_into(const cluster::NodeConfig& config,
                    const std::vector<ResourceFootprint>& footprints,
                    NodeContentionReport* out) const;

 private:
  Params params_;
};

}  // namespace coda::perfmodel
