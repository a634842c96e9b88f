// Historical job log (paper Sec. V-A step 5): when a job completes, its
// resource usage and owner are recorded "for future use". The adaptive CPU
// allocator seeds N_start from the owner's history in the same model
// category, and the multi-array scheduler sizes its per-node CPU
// reservation from cluster-wide statistics.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "cluster/resources.h"
#include "perfmodel/dnn_model.h"
#include "perfmodel/train_perf.h"
#include "util/fields.h"

namespace coda::core {

struct HistoryRecord {
  cluster::TenantId tenant = 0;
  perfmodel::ModelCategory category = perfmodel::ModelCategory::kCV;
  perfmodel::ModelId model = perfmodel::ModelId::kAlexnet;
  int nodes = 1;
  int gpus_per_node = 1;
  int optimal_cores = 1;  // per node, as converged by the allocator

  // Snapshot `hist` rows.
  friend auto fields(util::FieldsOf<HistoryRecord> auto& h) {
    return std::tie(h.tenant, h.category, h.model, h.nodes, h.gpus_per_node,
                    h.optimal_cores);
  }
};

class HistoryLog {
 public:
  void record(const HistoryRecord& record);

  // N_start seed: the largest converged core count among the owner's past
  // jobs in `category` (paper: "we choose the largest core number"). Jobs
  // with the same GPU shape are preferred when any exist; otherwise any job
  // in the category counts. nullopt when the owner has no history there.
  std::optional<int> start_point(cluster::TenantId tenant,
                                 perfmodel::ModelCategory category,
                                 int nodes, int gpus_per_node) const;

  // Worst-case fallback (Sec. V-B1): the owner did not even provide the
  // category — seed from the owner's history across all categories.
  std::optional<int> start_point_any(cluster::TenantId tenant) const;

  // Cluster-wide average converged cores per GPU; sizes the GPU array's
  // per-node CPU reservation ("derived from historical statistical
  // information", Sec. V-C). nullopt before any GPU job completed.
  std::optional<double> mean_cores_per_gpu() const;

  // Fraction of recorded GPU jobs that used >= 4 GPUs; sizes the 4-GPU
  // sub-array. nullopt when empty.
  std::optional<double> four_gpu_fraction() const;

  size_t size() const { return records_.size(); }
  const std::vector<HistoryRecord>& records() const { return records_; }

 private:
  std::vector<HistoryRecord> records_;
  // All queries are aggregates (maxima and sums), so record() folds each
  // entry into running statistics and the lookups stay O(log n) regardless
  // of how much history a tenant accumulates. The sums accumulate in record
  // order — the same order the old full scans added in — so the derived
  // means are bit-identical to recomputing from records_.
  struct OwnerStats {
    int best_any = 0;  // max optimal_cores in this (tenant, category)
    // (nodes, gpus_per_node) -> max optimal_cores with that GPU shape.
    std::map<std::pair<int, int>, int> best_by_shape;
  };
  std::map<std::pair<cluster::TenantId, int>, OwnerStats> by_owner_;
  std::map<cluster::TenantId, int> best_by_tenant_;
  double cores_per_gpu_sum_ = 0.0;
  double four_gpu_weight_ = 0.0;
  double total_gpu_weight_ = 0.0;
};

}  // namespace coda::core
