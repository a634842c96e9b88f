// Job descriptions: what tenants submit to the cluster.
//
// Two kinds exist in the paper's multi-tenant cluster: GPU (DNN-training)
// jobs that need GPUs plus a CPU-side data pipeline, and CPU-only jobs
// (inference, auxiliary batch work). A JobSpec is immutable submission-time
// data; runtime state (allocation, progress) lives in the simulation layer.
#pragma once

#include <string>

#include "cluster/resources.h"
#include "perfmodel/dnn_model.h"
#include "perfmodel/train_perf.h"
#include "util/fields.h"

namespace coda::workload {

enum class JobKind { kCpu = 0, kGpuTraining = 1 };

const char* to_string(JobKind kind);

// Optional user-supplied hints from Sec. V-B1 — tenants "may provide the
// following three types of information": model-weight size, pipeline
// optimization, and inter-iteration processing complexity. The allocator
// uses them to refine N_start.
struct UserHints {
  bool category_known = true;  // worst case: not even the category is given
  bool pipelined = false;      // implemented with pipeline optimization
  bool large_weights = false;  // large number of model weights
  bool complex_prep = false;   // heavy processing between iterations
};

struct JobSpec {
  cluster::JobId id = 0;
  cluster::TenantId tenant = 0;
  JobKind kind = JobKind::kCpu;
  double submit_time = 0.0;  // seconds since trace start

  // ---- GPU training jobs ----
  perfmodel::ModelId model = perfmodel::ModelId::kAlexnet;
  perfmodel::TrainConfig train_config;
  double iterations = 0.0;   // total training iterations to run
  int requested_cpus = 1;    // cores the owner asked for (per node)
  UserHints hints;

  // ---- CPU jobs ----
  int cpu_cores = 1;            // cores requested
  double cpu_work_core_s = 0.0; // total work in core-seconds
  double mem_bw_gbps = 0.0;     // bandwidth demand at full speed
  double bw_bound_fraction = 0.0;  // Amdahl fraction that is bandwidth-bound
  double llc_mb = 0.0;
  // User-facing inference service (Sec. V-A): the one CPU-job class that
  // outranks DNN training — never throttled by the eliminator and never
  // evicted from borrowed cores (it is not allowed to borrow).
  bool user_facing = false;

  // ---- Checkpointing (both kinds) ----
  // Every checkpoint_interval_s seconds of *running* time the job persists
  // its progress; an eviction rolls back to the last checkpoint boundary
  // instead of zero. Writing a checkpoint costs checkpoint_overhead_s of
  // stalled compute, amortized into the progress rate. 0 disables
  // checkpointing: evictions lose all progress (the pre-existing behavior).
  double checkpoint_interval_s = 0.0;
  double checkpoint_overhead_s = 0.0;

  bool checkpointing() const { return checkpoint_interval_s > 0.0; }

  bool is_gpu_job() const { return kind == JobKind::kGpuTraining; }

  // Number of distinct nodes this job must be placed on.
  int nodes_needed() const {
    return is_gpu_job() ? train_config.nodes : 1;
  }
  // GPUs needed on each of those nodes.
  int gpus_per_node() const {
    return is_gpu_job() ? train_config.gpus_per_node : 0;
  }
  int total_gpus() const {
    return is_gpu_job() ? train_config.total_gpus() : 0;
  }

  // Short description used in logs and drill-down tables.
  std::string label() const;

  // Every field, in the order report record rows carry them.
  friend auto fields(util::FieldsOf<JobSpec> auto& s) {
    auto& tc = s.train_config;
    return std::tie(s.id, s.tenant, s.kind, s.submit_time, s.model, tc.nodes,
                    tc.gpus_per_node, tc.batch_size, tc.net_gbps, s.iterations,
                    s.requested_cpus, s.hints.category_known,
                    s.hints.pipelined, s.hints.large_weights,
                    s.hints.complex_prep, s.cpu_cores, s.cpu_work_core_s,
                    s.mem_bw_gbps, s.bw_bound_fraction, s.llc_mb,
                    s.user_facing, s.checkpoint_interval_s,
                    s.checkpoint_overhead_s);
  }
};

}  // namespace coda::workload
