// Snapshot (de)serialization for the base Scheduler and the FIFO/DRF
// baselines, and the queue lookup restore checks retries against. Queue contents are written as job-id sequences in queue order;
// load_state rehydrates the full JobSpecs from the snapshot's embedded
// session (SpecMap), so specs are stored exactly once per session.
#include <algorithm>

#include "sched/drf.h"
#include "sched/fifo.h"
#include "sched/scheduler.h"
#include "state/serde.h"

namespace coda::sched {

const workload::JobSpec* spec_of(state::Reader* r, const SpecMap& specs,
                                 cluster::JobId id) {
  auto it = specs.find(id);
  if (it == specs.end()) {
    r->fail("serialized state references unknown job " + std::to_string(id));
    return nullptr;
  }
  return &it->second;
}

void Scheduler::save_state(state::Writer* w) const {
  // unordered_map: emit sorted by id so equal states serialize identically.
  std::vector<std::pair<cluster::JobId, int>> evictions(evictions_.begin(),
                                                        evictions_.end());
  std::sort(evictions.begin(), evictions.end());
  w->line("retry_evictions", evictions.size());
  for (const auto& [id, count] : evictions) {
    w->line("evx", id, count);
  }
}

void Scheduler::load_state(state::Reader* r, const SpecMap& /*specs*/) {
  r->expect("retry_evictions");
  const uint64_t n = r->u64();
  evictions_.clear();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("evx");
    const cluster::JobId id = r->u64();
    evictions_[id] = r->i32();
  }
}

// ----------------------------------------------------------------- FIFO

void FifoScheduler::save_state(state::Writer* w) const {
  Scheduler::save_state(w);
  w->line("fifo_queue", queue_.size());
  for (const workload::JobSpec& spec : queue_) {
    w->line("fq", spec.id);
  }
  w->line("fifo_gpu_pending", gpu_pending_);
}

void FifoScheduler::load_state(state::Reader* r, const SpecMap& specs) {
  Scheduler::load_state(r, specs);
  r->expect("fifo_queue");
  const uint64_t n = r->u64();
  queue_.clear();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("fq");
    if (const workload::JobSpec* spec = spec_of(r, specs, r->u64())) {
      queue_.push_back(*spec);
    }
  }
  r->expect("fifo_gpu_pending");
  gpu_pending_ = r->u64();
}

// ------------------------------------------------------------------ DRF

void DrfScheduler::save_state(state::Writer* w) const {
  Scheduler::save_state(w);
  w->line("drf_tenants", tenants_.size());
  for (const auto& [tenant, st] : tenants_) {
    w->line("ten", tenant, st.allocated.cpus, st.allocated.gpus,
            st.queue.size());
    for (const workload::JobSpec& spec : st.queue) {
      w->line("tq", spec.id);
    }
  }
  w->line("drf_gpu_pending", gpu_pending_);
}

void DrfScheduler::load_state(state::Reader* r, const SpecMap& specs) {
  Scheduler::load_state(r, specs);
  r->expect("drf_tenants");
  const uint64_t n = r->u64();
  tenants_.clear();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("ten");
    cluster::TenantId tenant = 0;
    r->read(tenant);
    TenantState& st = tenants_[tenant];
    uint64_t k = 0;
    r->read(st.allocated.cpus, st.allocated.gpus, k);
    for (uint64_t j = 0; j < k && r->ok(); ++j) {
      r->expect("tq");
      if (const workload::JobSpec* spec = spec_of(r, specs, r->u64())) {
        st.queue.push_back(*spec);
      }
    }
  }
  r->expect("drf_gpu_pending");
  gpu_pending_ = r->u64();
}

bool FifoScheduler::queued(cluster::JobId id) const {
  for (const workload::JobSpec& spec : queue_) {
    if (spec.id == id) {
      return true;
    }
  }
  return false;
}

bool DrfScheduler::queued(cluster::JobId id) const {
  for (const auto& [tenant, state] : tenants_) {
    for (const workload::JobSpec& spec : state.queue) {
      if (spec.id == id) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace coda::sched
