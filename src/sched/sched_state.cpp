// Snapshot (de)serialization for the base Scheduler and the FIFO/DRF
// baselines, and the queue lookup restore checks retries against. Queue
// contents are written as job-id sequences in queue order; load_state
// rehydrates the full JobSpecs from the snapshot's embedded session
// (SpecMap), so specs are stored exactly once per session. It refuses the
// rows a policy would abort on later: a queued job that is running, queued
// twice or not pending in the engine, a GPU-pending count the queues
// disagree with, and a DRF tenant allocation that its running jobs do not
// hold.
#include <algorithm>
#include <set>
#include <string>

#include "sched/drf.h"
#include "sched/fifo.h"
#include "sched/scheduler.h"
#include "state/serde.h"
#include "util/strings.h"

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

std::set<cluster::JobId> Scheduler::jobs_on_nodes() const {
  std::set<cluster::JobId> jobs;
  for (const cluster::Node& node : env_.cluster->nodes()) {
    for (const cluster::Allocation& alloc : node.allocations()) {
      jobs.insert(alloc.job);
    }
  }
  return jobs;
}

const workload::JobSpec* Scheduler::queued_spec(
    state::Reader* r, const SpecMap& specs, std::set<cluster::JobId>* taken,
    const char* row) const {
  const cluster::JobId id = r->u64();
  const workload::JobSpec* spec = spec_of(r, specs, id);
  if (spec == nullptr) {
    return nullptr;
  }
  const auto refuse = [&](const char* what) {
    r->fail(util::strfmt("%s row %llu names %s", row,
                         static_cast<unsigned long long>(id), what));
    return nullptr;
  };
  if (!taken->insert(id).second) {
    return refuse("a running or already queued job");
  }
  if (!env_.is_pending(id)) {
    return refuse("a job the engine does not hold as pending");
  }
  return spec;
}

namespace {

// Reads a `<key> n` row and checks n against the GPU jobs the queue rows
// hold.
void expect_gpu_pending(state::Reader* r, const char* key, size_t derived) {
  r->expect(key);
  const uint64_t n = r->u64();
  if (r->ok() && n != derived) {
    r->fail(util::strfmt("%s %llu but %zu GPU jobs are queued", key,
                         static_cast<unsigned long long>(n), derived));
  }
}

}  // namespace

// ----------------------------------------------------------------- FIFO

void FifoScheduler::save_state(state::Writer* w) const {
  Scheduler::save_state(w);
  w->line("fifo_queue", size_);
  for (uint32_t e = head_; e != kNil; e = entries_[e].next) {
    w->line("fq", entries_[e].spec.id);
  }
  w->line("fifo_gpu_pending", gpu_pending_);
}

void FifoScheduler::load_state(state::Reader* r, const SpecMap& specs) {
  Scheduler::load_state(r, specs);
  r->expect("fifo_queue");
  const uint64_t n = r->u64();
  entries_.clear();
  free_ = head_ = tail_ = window_last_ = kNil;
  size_ = gpu_pending_ = 0;
  back_order_ = front_order_ = 0;
  shapes_.clear();
  shape_ids_.clear();
  first_shape_ = last_shape_ = kNil;
  std::set<cluster::JobId> taken = jobs_on_nodes();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("fq");
    if (const workload::JobSpec* spec = queued_spec(r, specs, &taken, "fq")) {
      push(*spec, /*front=*/false);
    }
  }
  expect_gpu_pending(r, "fifo_gpu_pending", gpu_pending_);
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
  gpu_pending_ = 0;
  std::set<cluster::JobId> taken = jobs_on_nodes();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("ten");
    cluster::TenantId tenant = 0;
    r->read(tenant);
    TenantState& st = tenants_[tenant];
    uint64_t k = 0;
    r->read(st.allocated.cpus, st.allocated.gpus, k);
    for (uint64_t j = 0; j < k && r->ok(); ++j) {
      r->expect("tq");
      if (const workload::JobSpec* spec =
              queued_spec(r, specs, &taken, "tq")) {
        st.queue.push_back(*spec);
        gpu_pending_ += spec->is_gpu_job() ? 1 : 0;
      }
    }
  }
  expect_gpu_pending(r, "drf_gpu_pending", gpu_pending_);
  if (!r->ok()) {
    return;
  }
  // A tenant's allocation is what its running jobs hold on the nodes; a
  // `ten` row that says otherwise would drive the share negative (or keep
  // it high forever) once those jobs leave.
  std::map<cluster::TenantId, cluster::ResourceVector> held;
  for (const cluster::Node& node : env_.cluster->nodes()) {
    for (const cluster::Allocation& alloc : node.allocations()) {
      const workload::JobSpec* spec = spec_of(r, specs, alloc.job);
      if (spec == nullptr) {
        return;
      }
      held[spec->tenant] += cluster::ResourceVector{alloc.cpus, alloc.gpus};
    }
  }
  for (const auto& [tenant, st] : tenants_) {
    held.try_emplace(tenant);
  }
  for (const auto& [tenant, resources] : held) {
    const auto it = tenants_.find(tenant);
    const cluster::ResourceVector listed =
        it == tenants_.end() ? cluster::ResourceVector{}
                             : it->second.allocated;
    if (listed != resources) {
      r->fail(util::strfmt(
          "ten row of tenant %llu holds %d cores and %d GPUs but its "
          "running jobs hold %d and %d",
          static_cast<unsigned long long>(tenant), listed.cpus, listed.gpus,
          resources.cpus, resources.gpus));
      return;
    }
  }
}

bool FifoScheduler::queued(cluster::JobId id) const {
  for (uint32_t e = head_; e != kNil; e = entries_[e].next) {
    if (entries_[e].spec.id == id) {
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
