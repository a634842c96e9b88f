// DRF baseline: Dominant Resource Fairness across tenants (Ghodsi et al.,
// NSDI'11), the second comparison point of the paper's evaluation.
//
// Each tenant's dominant share is its maximum share across the two
// schedulable resources (CPU cores, GPUs). The scheduler repeatedly offers
// the next start to the tenant with the smallest dominant share whose
// head-of-queue job fits; within a tenant, jobs stay FIFO. GPU jobs receive
// the cores their owner requested — like FIFO, nothing adapts.
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "sched/failed_shapes.h"
#include "sched/placement.h"
#include "sched/scheduler.h"

namespace coda::sched {

class DrfScheduler : public Scheduler {
 public:
  const char* name() const override { return "DRF"; }

  void submit(const workload::JobSpec& spec) override;
  void on_job_finished(const workload::JobSpec& spec) override;
  void on_job_evicted(const workload::JobSpec& spec) override;
  void kick() override;

  size_t pending() const;
  size_t pending_jobs() const override { return pending(); }
  size_t pending_gpu_jobs() const override { return gpu_pending_; }
  std::optional<PendingGpuDemand> min_pending_gpu_demand() const override;
  bool queued(cluster::JobId id) const override;
  // Current dominant share of one tenant (tests / Fig. 12 analysis).
  double dominant_share(cluster::TenantId tenant) const;

  void save_state(state::Writer* w) const override;
  void load_state(state::Reader* r, const SpecMap& specs) override;

 private:
  struct TenantState {
    std::deque<workload::JobSpec> queue;
    cluster::ResourceVector allocated;
  };

  std::map<cluster::TenantId, TenantState> tenants_;
  size_t gpu_pending_ = 0;
  // Failed requests. Offer rounds within a kick only start jobs, so
  // failures carry across rounds and, when nothing in the cluster changed,
  // across whole kicks.
  FailedShapes failed_;
};

}  // namespace coda::sched
