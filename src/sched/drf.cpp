#include "sched/drf.h"

#include <algorithm>

#include "util/assert.h"

namespace coda::sched {

void DrfScheduler::submit(const workload::JobSpec& spec) {
  tenants_[spec.tenant].queue.push_back(spec);
  if (spec.is_gpu_job()) {
    ++gpu_pending_;
  }
}

void DrfScheduler::on_job_finished(const workload::JobSpec& spec) {
  auto it = tenants_.find(spec.tenant);
  CODA_ASSERT(it != tenants_.end());
  const auto req = baseline_request(spec);
  it->second.allocated -=
      cluster::ResourceVector{req.cpus_per_node * req.nodes,
                              req.gpus_per_node * req.nodes};
  CODA_ASSERT(it->second.allocated.non_negative());
}

void DrfScheduler::on_job_evicted(const workload::JobSpec& spec) {
  // Release the accounting exactly like a finish, then re-queue at the
  // tenant's head (or hand the job to the retry policy).
  on_job_finished(spec);
  if (!retry_after_eviction(spec)) {
    return;
  }
  tenants_[spec.tenant].queue.push_front(spec);
  if (spec.is_gpu_job()) {
    ++gpu_pending_;
  }
}

size_t DrfScheduler::pending() const {
  size_t n = 0;
  for (const auto& [id, state] : tenants_) {
    n += state.queue.size();
  }
  return n;
}

std::optional<sched::Scheduler::PendingGpuDemand>
DrfScheduler::min_pending_gpu_demand() const {
  std::optional<PendingGpuDemand> best;
  for (const auto& [id, state] : tenants_) {
    // Any tenant's head may be offered resources next.
    if (state.queue.empty() || !state.queue.front().is_gpu_job()) {
      continue;
    }
    const auto& spec = state.queue.front();
    const PendingGpuDemand d{spec.train_config.gpus_per_node,
                             std::max(1, spec.requested_cpus)};
    if (!best || d < *best) {
      best = d;
    }
  }
  return best;
}

double DrfScheduler::dominant_share(cluster::TenantId tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return 0.0;
  }
  const auto& alloc = it->second.allocated;
  const double cpu_share =
      static_cast<double>(alloc.cpus) / env_.cluster->total_cpus();
  const double gpu_share =
      static_cast<double>(alloc.gpus) / env_.cluster->total_gpus();
  return std::max(cpu_share, gpu_share);
}

void DrfScheduler::kick() {
  // Progressive filling: repeatedly pick the lowest-dominant-share tenant
  // whose head job fits. A tenant whose head does not fit is skipped this
  // round (no cross-tenant head-of-line blocking), but its own queue stays
  // FIFO.
  //
  // A head whose request covers one that already failed is skipped without
  // a search: within a kick capacity only shrinks (rounds only start jobs),
  // so a failure in one round still holds in the next, and a kick that
  // begins with the cluster untouched since the last one inherits the
  // previous kick's failures wholesale.
  const auto& index = env_.cluster->placement_index();
  failed_.begin(index.generation());
  while (true) {
    // Order tenants with pending jobs by (dominant share, id).
    std::vector<cluster::TenantId> order;
    for (const auto& [id, state] : tenants_) {
      if (!state.queue.empty()) {
        order.push_back(id);
      }
    }
    std::sort(order.begin(), order.end(),
              [this](cluster::TenantId a, cluster::TenantId b) {
                const double sa = dominant_share(a);
                const double sb = dominant_share(b);
                if (sa != sb) {
                  return sa < sb;
                }
                return a < b;
              });
    bool started = false;
    for (cluster::TenantId id : order) {
      TenantState& state = tenants_[id];
      const workload::JobSpec& head = state.queue.front();
      const auto req = baseline_request(head);
      if (failed_.refuses(req)) {
        continue;
      }
      auto placement = find_placement(*env_.cluster, req);
      if (!placement.has_value()) {
        failed_.add(req);
        continue;
      }
      const auto status = env_.start_job(head.id, *placement);
      CODA_ASSERT_MSG(status.ok(), "DRF proposed an infeasible placement");
      state.allocated +=
          cluster::ResourceVector{req.cpus_per_node * req.nodes,
                                  req.gpus_per_node * req.nodes};
      if (head.is_gpu_job()) {
        --gpu_pending_;
      }
      state.queue.pop_front();
      started = true;
      break;  // shares changed; recompute the order
    }
    if (!started) {
      failed_.end(index.generation());
      return;
    }
  }
}

}  // namespace coda::sched
