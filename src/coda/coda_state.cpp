// Snapshot (de)serialization for the CODA scheduler: per-array DRF queues
// and usage shares, running GPU/CPU bookkeeping, the tuning audit trail,
// per-node incremental accounting, the history log, the live tuning
// sessions and the eliminator's throttle records.
//
// Queues and running sets reference jobs by id; full JobSpecs come from the
// snapshot's embedded session (SpecMap). A tuning job's pending outcome
// (`poc`) and session (`as`) live in its running record; each list walks
// the records in id order. The history log is rebuilt by replaying
// record() in record order — its running aggregates fold bit-identically
// in that order (see history.h).
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "coda/coda_scheduler.h"
#include "state/serde.h"
#include "util/assert.h"
#include "util/strings.h"

namespace coda::core {

void CodaScheduler::save_state(state::Writer* w) const {
  Scheduler::save_state(w);

  w->line("coda_reservation", reserved_cores_, four_array_nodes_);
  w->line("coda_counters", cross_borrower_count_, preemptions_, migrations_,
          next_seq_, next_generation_);

  const auto save_array = [w](const char* key, const ArrayState& array) {
    w->line(key, array.queues.size(), array.usage.size());
    for (const auto& [tenant, queue] : array.queues) {
      w->line("aq", tenant, queue.size());
      for (const workload::JobSpec& spec : queue) {
        w->line("aj", spec.id);
      }
    }
    for (const auto& [tenant, used] : array.usage) {
      w->line("au", tenant, used);
    }
  };
  save_array("cpu_array", cpu_array_);
  save_array("four_gpu_array", four_gpu_array_);
  save_array("one_gpu_array", one_gpu_array_);

  w->line("running_gpu", running_gpu_.size());
  for (const auto& [id, r] : running_gpu_) {
    w->line("rg", id, fields(r), r.placement.nodes.size());
    for (const auto& np : r.placement.nodes) {
      w->line("rgp", fields(np));
    }
  }
  w->line("running_cpu", running_cpu_.size());
  for (const auto& [id, r] : running_cpu_) {
    w->line("rc", id, fields(r));
  }

  w->line("tuning_outcomes", tuning_outcomes_.size());
  for (const TuningOutcome& o : tuning_outcomes_) {
    w->line("oc", fields(o));
  }
  const auto tuning = static_cast<size_t>(std::count_if(
      running_gpu_.begin(), running_gpu_.end(),
      [](const auto& job) { return job.second.tuning_active; }));
  w->line("pending_outcomes", tuning);
  for (const auto& [id, r] : running_gpu_) {
    if (r.tuning_active) {
      w->line("poc", fields(r.outcome));
    }
  }

  w->line("coda_nodes", cpu_jobs_by_node_.size());
  for (size_t node = 0; node < cpu_jobs_by_node_.size(); ++node) {
    w->line("nv", node, gpu_cores_on_node_[node], borrowed_on_node_[node],
            cross_borrowers_on_node_[node], cpu_jobs_by_node_[node].size());
    for (cluster::JobId job : cpu_jobs_by_node_[node]) {
      w->line("nj", job);
    }
  }

  w->line("history", history_.records().size());
  for (const HistoryRecord& rec : history_.records()) {
    w->line("hist", fields(rec));
  }

  w->line("alloc_sessions", tuning);
  for (const auto& [id, r] : running_gpu_) {
    if (r.tuning_active) {
      w->line("as", id, fields(r.session));
    }
  }
  eliminator_->save_state(w);
}

void CodaScheduler::load_state(state::Reader* r,
                               const sched::SpecMap& specs) {
  CODA_ASSERT_MSG(eliminator_ != nullptr,
                  "load_state requires an attached scheduler");
  Scheduler::load_state(r, specs);

  r->expect("coda_reservation");
  r->read(reserved_cores_, four_array_nodes_);
  r->expect("coda_counters");
  r->read(cross_borrower_count_, preemptions_, migrations_, next_seq_,
          next_generation_);

  // A queue row names a pending job, neither running nor queued elsewhere.
  std::set<cluster::JobId> taken = jobs_on_nodes();
  const auto load_array = [this, r, &specs, &taken](const char* key,
                                                    ArrayState* array) {
    array->queues.clear();
    array->usage.clear();
    if (!r->expect(key)) {
      return;
    }
    const uint64_t queues = r->u64();
    const uint64_t usages = r->u64();
    for (uint64_t i = 0; i < queues && r->ok(); ++i) {
      r->expect("aq");
      cluster::TenantId tenant = 0;
      uint64_t k = 0;
      r->read(tenant, k);
      auto& queue = array->queues[tenant];
      for (uint64_t j = 0; j < k && r->ok(); ++j) {
        r->expect("aj");
        if (const workload::JobSpec* spec =
                queued_spec(r, specs, &taken, "aj")) {
          queue.push_back(*spec);
        }
      }
    }
    for (uint64_t i = 0; i < usages && r->ok(); ++i) {
      r->expect("au");
      cluster::TenantId tenant = 0;
      int used = 0;
      r->read(tenant, used);
      array->usage[tenant] = used;
    }
  };
  load_array("cpu_array", &cpu_array_);
  load_array("four_gpu_array", &four_gpu_array_);
  load_array("one_gpu_array", &one_gpu_array_);

  // Every node a running job names indexes the per-node vectors below, so
  // one off the cluster is refused as read.
  const size_t nodes = cpu_jobs_by_node_.size();
  const auto on_cluster = [r, nodes](cluster::NodeId node, const char* row) {
    if (node >= nodes) {
      r->fail(std::string(row) + " row names a node off the cluster");
    }
    return node < nodes;
  };

  r->expect("running_gpu");
  uint64_t n = r->u64();
  running_gpu_.clear();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("rg");
    const cluster::JobId id = r->u64();
    const workload::JobSpec* spec = sched::spec_of(r, specs, id);
    if (spec == nullptr) {
      return;
    }
    RunningGpu rg;
    rg.spec = *spec;
    uint64_t np = 0;
    r->read(fields(rg), np);
    for (uint64_t j = 0; j < np && r->ok(); ++j) {
      r->expect("rgp");
      auto& leg = rg.placement.nodes.emplace_back();
      if (r->read(fields(leg)) && !on_cluster(leg.node, "rgp")) {
        return;
      }
    }
    if (!running_gpu_.emplace(id, std::move(rg)).second) {
      r->fail("rg row listed twice: " + std::to_string(id));
      return;
    }
  }

  r->expect("running_cpu");
  n = r->u64();
  running_cpu_.clear();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("rc");
    const cluster::JobId id = r->u64();
    const workload::JobSpec* spec = sched::spec_of(r, specs, id);
    if (spec == nullptr) {
      return;
    }
    RunningCpu rc;
    rc.spec = *spec;
    if (r->read(fields(rc)) && !on_cluster(rc.node, "rc")) {
      return;
    }
    if (!running_cpu_.emplace(id, std::move(rc)).second) {
      r->fail("rc row listed twice: " + std::to_string(id));
      return;
    }
  }
  if (!r->ok() || !check_running_records(r)) {
    return;
  }

  r->expect("tuning_outcomes");
  n = r->u64();
  tuning_outcomes_.clear();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("oc");
    r->read(fields(tuning_outcomes_.emplace_back()));
  }
  // A tuning job's pending outcome and session live in its record, so the
  // `poc` rows, and later the `as` rows, list exactly the tuning GPU jobs in
  // the records' (id) order.
  std::vector<RunningGpu*> tuning;
  for (auto& [id, rg] : running_gpu_) {
    if (rg.tuning_active) {
      tuning.push_back(&rg);
    }
  }
  const auto expect_tuning = [r, &tuning](const char* key) {
    r->expect(key);
    const uint64_t rows = r->u64();
    if (r->ok() && rows != tuning.size()) {
      r->fail(util::strfmt("%s %llu but %zu GPU jobs are tuning", key,
                           static_cast<unsigned long long>(rows),
                           tuning.size()));
    }
  };
  const auto expect_job = [r](const char* row, cluster::JobId named,
                              const RunningGpu& rg) {
    if (r->ok() && named != rg.spec.id) {
      r->fail(util::strfmt("%s row %llu is not tuning GPU job %llu's", row,
                           static_cast<unsigned long long>(named),
                           static_cast<unsigned long long>(rg.spec.id)));
    }
  };
  expect_tuning("pending_outcomes");
  for (RunningGpu* rg : tuning) {
    r->expect("poc");
    r->read(fields(rg->outcome));
    expect_job("poc", rg->outcome.job, *rg);
  }

  // The per-node rows restate what the rg/rc rows imply (only the order of
  // a node's CPU jobs is their own). A row that disagrees would trip the
  // accounting asserts once a job leaves, so it is refused.
  if (!r->ok()) {
    return;  // a row read short may hold a node no check has seen
  }
  // 64-bit sums: the rows' ints are read unchecked, and adding them up in
  // int could overflow.
  std::vector<int64_t> gpu_cores(nodes, 0);
  std::vector<int64_t> borrowed(nodes, 0);
  std::vector<int64_t> cross_borrowers(nodes, 0);
  std::vector<uint64_t> cpu_jobs(nodes, 0);
  for (const auto& [id, rg] : running_gpu_) {
    for (const auto& leg : rg.placement.nodes) {
      gpu_cores[leg.node] += leg.cpus;
      cross_borrowers[leg.node] += rg.cross_borrower ? 1 : 0;
    }
  }
  for (const auto& [id, rc] : running_cpu_) {
    borrowed[rc.node] += rc.borrowed_reserved;
    ++cpu_jobs[rc.node];
  }

  r->expect("coda_nodes");
  n = r->u64();
  if (r->ok() && n != nodes) {
    r->fail("snapshot node count does not match the attached cluster");
    return;
  }
  std::set<cluster::JobId> listed;
  for (uint64_t node = 0; node < n && r->ok(); ++node) {
    r->expect("nv");
    if (r->u64() != node && r->ok()) {
      r->fail("per-node rows out of order");
      return;
    }
    uint64_t k = 0;
    r->read(gpu_cores_on_node_[node], borrowed_on_node_[node],
            cross_borrowers_on_node_[node], k);
    if (r->ok() && (gpu_cores_on_node_[node] != gpu_cores[node] ||
                    borrowed_on_node_[node] != borrowed[node] ||
                    cross_borrowers_on_node_[node] != cross_borrowers[node] ||
                    k != cpu_jobs[node])) {
      r->fail(util::strfmt("nv row of node %llu disagrees with the running "
                           "jobs on it",
                           static_cast<unsigned long long>(node)));
      return;
    }
    cpu_jobs_by_node_[node].clear();
    for (uint64_t j = 0; j < k && r->ok(); ++j) {
      r->expect("nj");
      const cluster::JobId job = r->u64();
      const auto it = running_cpu_.find(job);
      if (r->ok() && (it == running_cpu_.end() || it->second.node != node ||
                      !listed.insert(job).second)) {
        r->fail(util::strfmt("nj row %llu is not one of node %llu's CPU "
                             "jobs",
                             static_cast<unsigned long long>(job),
                             static_cast<unsigned long long>(node)));
        return;
      }
      cpu_jobs_by_node_[node].push_back(job);
    }
  }

  r->expect("history");
  n = r->u64();
  CODA_ASSERT_MSG(history_.size() == 0,
                  "load_state requires a fresh history log");
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("hist");
    HistoryRecord rec;
    r->read(fields(rec));
    history_.record(rec);
  }

  expect_tuning("alloc_sessions");
  for (RunningGpu* rg : tuning) {
    r->expect("as");
    const cluster::JobId named = r->u64();
    r->read(fields(rg->session));
    expect_job("as", named, *rg);
    // Between events no session is done: one that converges ends in the
    // same tick.
    using Phase = AdaptiveCpuAllocator::Phase;
    if (r->ok() && (rg->session.phase < Phase::kProbeStart ||
                    rg->session.phase >= Phase::kDone)) {
      r->fail(util::strfmt("tuning session of job %llu has invalid phase %d",
                           static_cast<unsigned long long>(named),
                           static_cast<int>(rg->session.phase)));
    }
  }
  eliminator_->load_state(r);

  // Derived state: the borrowed total and the placement index's per-node
  // bias are not serialized; recompute them from the restored accounting.
  total_borrowed_ = 0;
  for (int b : borrowed_on_node_) {
    total_borrowed_ += b;
  }
  refresh_all_cpu_bias();
}

bool CodaScheduler::check_running_records(state::Reader* r) const {
  // Every job holding an allocation has exactly one record of its kind,
  // whose legs are its allocations, and every record names such a job: a
  // job without one would be released by nobody, and a record of another
  // shape would return cores and GPUs its job never held.
  using Legs = std::vector<sched::NodePlacement>;
  std::map<cluster::JobId, Legs> held;
  for (const cluster::Node& node : env_.cluster->nodes()) {
    for (const cluster::Allocation& alloc : node.allocations()) {
      held[alloc.job].push_back({node.id(), alloc.cpus, alloc.gpus});
    }
  }
  std::map<cluster::JobId, Legs> recorded;
  bool kinds = true;
  for (const auto& [id, rg] : running_gpu_) {
    Legs& legs = recorded[id] = rg.placement.nodes;
    std::sort(legs.begin(), legs.end(),
              [](const auto& a, const auto& b) { return a.node < b.node; });
    kinds = kinds && rg.spec.is_gpu_job();
  }
  for (const auto& [id, rc] : running_cpu_) {
    kinds = kinds && !rc.spec.is_gpu_job() &&
            recorded.emplace(id, Legs{{rc.node, rc.cores, 0}}).second;
  }
  if (!kinds || recorded != held) {
    r->fail("rg and rc rows are not the running jobs and their allocations");
    return false;
  }

  // Each array's `au` rows are what its records hold: GPUs in the GPU
  // arrays, current cores in the CPU array. A tenant whose jobs all left
  // keeps a row of 0. (No sum overflows: each term is a leg checked above.)
  std::map<const ArrayState*, std::map<cluster::TenantId, int>> used;
  for (const auto& [id, rg] : running_gpu_) {
    used[rg.four_array_job ? &four_gpu_array_ : &one_gpu_array_]
        [rg.spec.tenant] += rg.spec.total_gpus();
  }
  for (const auto& [id, rc] : running_cpu_) {
    used[&cpu_array_][rc.spec.tenant] += rc.cores;
  }
  for (const auto& [array, key] :
       {std::pair{&cpu_array_, "cpu_array"},
        std::pair{&four_gpu_array_, "four_gpu_array"},
        std::pair{&one_gpu_array_, "one_gpu_array"}}) {
    std::map<cluster::TenantId, int> listed = array->usage;
    std::erase_if(listed, [](const auto& entry) { return entry.second == 0; });
    if (listed != used[array]) {
      r->fail(std::string("au rows of ") + key +
              " differ from what its jobs hold");
      return false;
    }
  }
  return true;
}

bool CodaScheduler::queued(cluster::JobId id) const {
  for (const ArrayState* array :
       {&cpu_array_, &four_gpu_array_, &one_gpu_array_}) {
    for (const auto& [tenant, queue] : array->queues) {
      for (const workload::JobSpec& spec : queue) {
        if (spec.id == id) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace coda::core
