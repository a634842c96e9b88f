// Simulated Intel Memory Bandwidth Monitoring (MBM).
//
// On real hardware MBM exposes per-RMID (per-job) DRAM traffic counters; in
// the simulator the engine computes each job's achieved bandwidth from the
// contention model and publishes it through the BandwidthSource interface.
// The contention eliminator consumes only this interface, exactly as it
// would consume MBM counters on real hardware.
#pragma once

#include <vector>

#include "cluster/resources.h"

namespace coda::telemetry {

struct JobBandwidth {
  cluster::JobId job = 0;
  bool is_gpu_job = false;
  double gbps = 0.0;  // achieved (post-arbitration) bandwidth
};

struct NodeBandwidthSample {
  cluster::NodeId node = 0;
  double capacity_gbps = 0.0;
  double total_gbps = 0.0;          // sum over all jobs on the node
  std::vector<JobBandwidth> jobs;   // per-job breakdown (MBM per-RMID view)

  double pressure() const {
    return capacity_gbps > 0.0 ? total_gbps / capacity_gbps : 0.0;
  }
};

// Live per-node bandwidth counters; implemented by the simulation engine.
class BandwidthSource {
 public:
  virtual ~BandwidthSource() = default;
  virtual NodeBandwidthSample sample(cluster::NodeId node) const = 0;

  // Allocation-free variant: fills `out` in place, reusing its vector
  // capacity. Periodic consumers (the contention eliminator probes every
  // node every check period) keep one scratch sample instead of rebuilding
  // the per-job vector each tick. The default forwards to sample().
  virtual void sample_into(cluster::NodeId node,
                           NodeBandwidthSample* out) const {
    *out = sample(node);
  }

  // Cheap threshold probe: the node's total achieved bandwidth as a
  // fraction of capacity, without materializing the per-job breakdown. The
  // eliminator re-probes a node with this once a pass has acted, and only
  // pulls the full sample for a node over its threshold. Must agree with
  // sample(node).pressure(); the default guarantees that by construction.
  virtual double pressure(cluster::NodeId node) const {
    NodeBandwidthSample s;
    sample_into(node, &s);
    return s.pressure();
  }

  // Batch screen: one MBM read per monitoring pass instead of node_count
  // independent probes. Fills two parallel arrays — ascending node ids and
  // their pressures — covering AT LEAST every node in [0, node_count) whose
  // pressure is nonzero and at or above the floor (an unlisted node reads
  // below the floor, or exactly 0.0, from pressure() at the same instant);
  // every listed pressure must equal what pressure(id) would return then.
  // The floor is set through SchedulerEnv::set_pressure_floor (0 until
  // someone sets it; the contention eliminator registers its bw_threshold),
  // so a consumer that needs a node below the floor probes it with
  // pressure(). The default lists every node, which satisfies the contract
  // for any floor; the engine override syncs its dirty state once and lists
  // exactly the occupied nodes at or above the floor from a set it keeps
  // current as nodes recompute, so the periodic screen costs O(hot nodes),
  // not O(cluster).
  virtual void pressure_screen(size_t node_count,
                               std::vector<cluster::NodeId>* ids,
                               std::vector<double>* out) const {
    ids->resize(node_count);
    out->resize(node_count);
    for (size_t n = 0; n < node_count; ++n) {
      (*ids)[n] = static_cast<cluster::NodeId>(n);
      (*out)[n] = pressure(static_cast<cluster::NodeId>(n));
    }
  }
};

// Live per-job GPU utilization probe (nvidia-smi / DCGM stand-in);
// implemented by the simulation engine. Returns utilization in [0, 1], or a
// negative value when the job is unknown / not running.
class GpuUtilSource {
 public:
  virtual ~GpuUtilSource() = default;
  virtual double gpu_utilization(cluster::JobId job) const = 0;
};

}  // namespace coda::telemetry
