#include "coda/coda_scheduler.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"
#include "util/logging.h"

namespace coda::core {

// ---------------------------------------------------------------- ArrayState

size_t CodaScheduler::ArrayState::pending() const {
  size_t n = 0;
  for (const auto& [tenant, queue] : queues) {
    n += queue.size();
  }
  return n;
}

void CodaScheduler::ArrayState::push_back(const workload::JobSpec& spec) {
  queues[spec.tenant].push_back(spec);
}

void CodaScheduler::ArrayState::push_front(const workload::JobSpec& spec) {
  queues[spec.tenant].push_front(spec);
}

std::vector<cluster::TenantId> CodaScheduler::ArrayState::drf_order(
    int total_capacity) const {
  std::vector<cluster::TenantId> order;
  for (const auto& [tenant, queue] : queues) {
    if (!queue.empty()) {
      order.push_back(tenant);
    }
  }
  const auto share = [&](cluster::TenantId t) {
    auto it = usage.find(t);
    const int used = it != usage.end() ? it->second : 0;
    return total_capacity > 0 ? static_cast<double>(used) / total_capacity
                              : 0.0;
  };
  std::sort(order.begin(), order.end(),
            [&](cluster::TenantId a, cluster::TenantId b) {
              const double sa = share(a);
              const double sb = share(b);
              if (sa != sb) {
                return sa < sb;
              }
              return a < b;
            });
  return order;
}

// ------------------------------------------------------------ CodaScheduler

CodaScheduler::CodaScheduler(const CodaConfig& config)
    : config_(config), allocator_(config.allocator, &history_) {}

void CodaScheduler::attach(const sched::SchedulerEnv& env) {
  Scheduler::attach(env);
  eliminator_ = std::make_unique<ContentionEliminator>(
      config_.eliminator, &env_,
      [this](cluster::JobId job, cluster::NodeId node, int new_cores) {
        on_eliminator_cpu_resize(job, node, new_cores);
      },
      [this](cluster::JobId job) {
        auto it = running_cpu_.find(job);
        return it != running_cpu_.end() && it->second.spec.user_facing;
      });
  gpu_cores_on_node_.assign(env_.cluster->node_count(), 0);
  borrowed_on_node_.assign(env_.cluster->node_count(), 0);
  cpu_jobs_by_node_.assign(env_.cluster->node_count(), {});
  cross_borrowers_on_node_.assign(env_.cluster->node_count(), 0);

  if (config_.multi_array_enabled) {
    reserved_cores_ = std::clamp(config_.reserved_cores_per_node, 0,
                                 env_.cluster->config().node.cores);
    four_array_nodes_ = static_cast<int>(
        std::lround(config_.four_gpu_node_fraction *
                    static_cast<double>(env_.cluster->node_count())));
  } else {
    reserved_cores_ = 0;
    four_array_nodes_ = 0;
  }
  total_borrowed_ = 0;
  refresh_all_cpu_bias();

  // Each periodic kind has a sink only while it runs, so a snapshot row of
  // a disabled one has no owner and restore refuses it. In restore mode the
  // snapshot manifest re-posts the periodics at their exact next firing
  // times; posting them here too would tick twice.
  const auto own = [this](uint32_t kind) {
    CODA_ASSERT(env_.sim->register_sink(kind, this));
  };
  own(simcore::kTagTuningTick);
  if (config_.eliminator.enabled) {
    CODA_ASSERT(config_.eliminator.check_period_s > 0.0);
    own(simcore::kTagEliminatorTick);
    if (!env_.defer_periodics) {
      env_.sim->schedule_at(
          env_.sim->now() + config_.eliminator.check_period_s,
          {simcore::kTagEliminatorTick});
    }
  }
  if (config_.multi_array_enabled &&
      config_.reservation_update_period_s > 0.0) {
    own(simcore::kTagReservationTick);
    if (!env_.defer_periodics) {
      env_.sim->schedule_at(
          env_.sim->now() + config_.reservation_update_period_s,
          {simcore::kTagReservationTick});
    }
  }
}

void CodaScheduler::on_event(const simcore::EventTag& tag) {
  switch (tag.kind) {
    case simcore::kTagEliminatorTick:
      eliminator_->check_all(
          [this](cluster::JobId job) { return expected_utilization(job); });
      env_.sim->schedule_at(
          env_.sim->now() + config_.eliminator.check_period_s, tag);
      break;
    case simcore::kTagReservationTick:
      update_reservation_from_history();
      env_.sim->schedule_at(
          env_.sim->now() + config_.reservation_update_period_s, tag);
      break;
    case simcore::kTagTuningTick:
      on_tuning_tick(tag.a, tag.b);
      break;
    default:
      Scheduler::on_event(tag);
      break;
  }
}

bool CodaScheduler::is_four_gpu_job(const workload::JobSpec& spec) const {
  return config_.multi_array_enabled && spec.total_gpus() >= 4;
}

CodaScheduler::ArrayState& CodaScheduler::gpu_array_for(
    const workload::JobSpec& spec) {
  return is_four_gpu_job(spec) ? four_gpu_array_ : one_gpu_array_;
}

bool CodaScheduler::node_in_four_array(cluster::NodeId id) const {
  return static_cast<int>(id) < four_array_nodes_;
}

void CodaScheduler::submit(const workload::JobSpec& spec) {
  if (spec.is_gpu_job()) {
    gpu_array_for(spec).push_back(spec);
  } else {
    cpu_array_.push_back(spec);
  }
}

size_t CodaScheduler::pending_gpu_jobs() const {
  return four_gpu_array_.pending() + one_gpu_array_.pending();
}

size_t CodaScheduler::pending_cpu_jobs() const {
  return cpu_array_.pending();
}

std::optional<sched::Scheduler::PendingGpuDemand>
CodaScheduler::min_pending_gpu_demand() const {
  std::optional<PendingGpuDemand> best;
  const auto consider = [&](const ArrayState& array) {
    for (const auto& [tenant, queue] : array.queues) {
      if (queue.empty()) {
        continue;
      }
      const workload::JobSpec& spec = queue.front();
      const PendingGpuDemand d{spec.train_config.gpus_per_node,
                               allocator_.start_cores(spec)};
      if (!best || d < *best) {
        best = d;
      }
    }
  };
  consider(four_gpu_array_);
  consider(one_gpu_array_);
  return best;
}

int CodaScheduler::reclaimable_cpus(cluster::NodeId node) const {
  // Evicting a borrower frees its whole allocation, not just the borrowed
  // part (the job is aborted and re-queued). User-facing inference is never
  // evicted (Sec. V-A).
  int cores = 0;
  for (cluster::JobId job : cpu_jobs_by_node_[node]) {
    auto it = running_cpu_.find(job);
    CODA_ASSERT(it != running_cpu_.end());
    if (it->second.borrowed_reserved > 0 && !it->second.spec.user_facing) {
      cores += it->second.cores;
    }
  }
  return cores;
}

int CodaScheduler::gpu_cores_used_on(const cluster::Node& node) const {
  return gpu_cores_on_node_[node.id()];
}

int CodaScheduler::cpu_array_free_cores(const cluster::Node& node) const {
  if (node.total_gpus() == 0) {
    // CPU-only servers (Sec. VI-G) belong to the CPU array wholesale — no
    // GPU reservation to respect.
    return node.free_cpus();
  }
  // Physically free cores minus the part of the GPU reservation not yet
  // consumed by GPU jobs or by already-borrowing CPU jobs.
  const int held_for_gpu =
      std::max(0, reserved_cores_ - gpu_cores_on_node_[node.id()] -
                      borrowed_on_node_[node.id()]);
  return std::max(0, node.free_cpus() - held_for_gpu);
}

void CodaScheduler::note_cpu_job_started(const RunningCpu& rc) {
  cpu_jobs_by_node_[rc.node].push_back(rc.spec.id);
  borrowed_on_node_[rc.node] += rc.borrowed_reserved;
  total_borrowed_ += rc.borrowed_reserved;
  refresh_cpu_bias(rc.node);
}

void CodaScheduler::refresh_cpu_bias(cluster::NodeId node) {
  const cluster::Node& n = env_.cluster->node(node);
  int bias = 0;
  if (n.total_gpus() > 0) {
    bias = std::max(0, reserved_cores_ - gpu_cores_on_node_[node] -
                           borrowed_on_node_[node]);
  }
  env_.cluster->placement_index().set_cpu_bias(node, bias);
}

void CodaScheduler::refresh_all_cpu_bias() {
  const size_t n = env_.cluster->node_count();
  for (cluster::NodeId node = 0; node < n; ++node) {
    refresh_cpu_bias(node);
  }
}

void CodaScheduler::on_eliminator_cpu_resize(cluster::JobId job,
                                             cluster::NodeId node,
                                             int new_cores) {
  auto it = running_cpu_.find(job);
  if (it == running_cpu_.end()) {
    return;
  }
  RunningCpu& rc = it->second;
  CODA_ASSERT(rc.node == node);
  const int freed = rc.cores - new_cores;
  cpu_array_.usage[rc.spec.tenant] -= freed;
  // Freed cores return to the reservation first.
  const int returned = std::min(freed, rc.borrowed_reserved);
  rc.borrowed_reserved -= returned;
  borrowed_on_node_[node] -= returned;
  total_borrowed_ -= returned;
  rc.cores = new_cores;
  refresh_cpu_bias(node);
}

// ----------------------------------------------------------------- kick path

void CodaScheduler::kick() {
  schedule_gpu_array(four_gpu_array_, /*four_array=*/true);
  schedule_gpu_array(one_gpu_array_, /*four_array=*/false);
  schedule_cpu_array();
}

void CodaScheduler::schedule_gpu_array(ArrayState& array, bool four_array) {
  while (true) {
    bool started = false;
    for (cluster::TenantId tenant :
         array.drf_order(env_.cluster->total_gpus())) {
      const workload::JobSpec head = array.queues[tenant].front();
      if (try_start_gpu_job(head, four_array)) {
        array.queues[tenant].pop_front();
        started = true;
        break;  // shares changed: recompute order
      }
    }
    if (!started) {
      return;
    }
  }
}

bool CodaScheduler::try_start_gpu_job(const workload::JobSpec& spec,
                                      bool four_array) {
  const int cores = allocator_.start_cores(spec);
  sched::PlacementRequest request;
  request.nodes = spec.train_config.nodes;
  request.gpus_per_node = spec.train_config.gpus_per_node;
  request.cpus_per_node = cores;

  // The sub-arrays are contiguous id ranges: [0, four_array_nodes_) is the
  // 4-GPU array, the rest the 1-GPU array. With multi-array disabled there
  // is one range and the cross steps below are unreachable.
  const cluster::NodeId split =
      static_cast<cluster::NodeId>(four_array_nodes_);
  const sched::IdRange full{};
  const sched::IdRange home =
      !config_.multi_array_enabled
          ? full
          : (four_array ? sched::IdRange{0, split}
                        : sched::IdRange{split, full.hi});
  const sched::IdRange cross = four_array ? sched::IdRange{split, full.hi}
                                          : sched::IdRange{0, split};

  // Failed-shape dedup: a shape that failed an earlier *pure* try (one that
  // evicted and migrated nothing, so the index generation never moved) must
  // fail identically while the cluster and the array split are unchanged.
  // Unlike FIFO/DRF this cannot rely on within-kick monotonicity — eviction
  // overshoot can grow a node's free cores mid-kick — hence the exact
  // (generation, four_array_nodes_) match.
  const auto& index = env_.cluster->placement_index();
  if (index.generation() != gpu_failed_gen_ ||
      four_array_nodes_ != gpu_failed_four_nodes_) {
    failed_gpu_shapes_.clear();
    gpu_failed_gen_ = index.generation();
    gpu_failed_four_nodes_ = four_array_nodes_;
  }
  for (const auto& f : failed_gpu_shapes_) {
    if (f.nodes == request.nodes && f.gpus_per_node == request.gpus_per_node &&
        f.cpus_per_node == request.cpus_per_node &&
        f.four_array == four_array) {
      return false;
    }
  }
  const auto note_pure_failure = [&] {
    if (index.generation() == gpu_failed_gen_) {
      failed_gpu_shapes_.push_back({request.nodes, request.gpus_per_node,
                                    request.cpus_per_node, four_array});
    }
  };

  // 1) Plain placement in the home sub-array.
  if (auto placement = find_placement(*env_.cluster, request, home)) {
    start_gpu_job(spec, *placement, cores, four_array,
                  /*cross_borrower=*/false);
    return true;
  }

  // 2) Home sub-array with eviction of CPU borrowers occupying reserved
  //    cores ("CODA aborts the running CPU job and releases the preempted
  //    CPU cores", Sec. V-C). With no borrowed cores anywhere, or when the
  //    pass evicted nothing, the re-query would repeat step 1's miss
  //    verbatim — skip both.
  if (config_.cpu_preemption_enabled && total_borrowed_ > 0 &&
      prepare_nodes_by_eviction(request, home)) {
    if (auto placement = find_placement(*env_.cluster, request, home)) {
      start_gpu_job(spec, *placement, cores, four_array,
                    /*cross_borrower=*/false);
      return true;
    }
  }

  if (!config_.multi_array_enabled) {
    note_pure_failure();
    return false;
  }

  // 3) Borrow nodes from the other sub-array (Sec. V-C).
  if (auto placement = find_placement(*env_.cluster, request, cross)) {
    start_gpu_job(spec, *placement, cores, four_array,
                  /*cross_borrower=*/!four_array);
    return true;
  }
  if (config_.cpu_preemption_enabled && total_borrowed_ > 0 &&
      prepare_nodes_by_eviction(request, cross)) {
    if (auto placement = find_placement(*env_.cluster, request, cross)) {
      start_gpu_job(spec, *placement, cores, four_array,
                    /*cross_borrower=*/!four_array);
      return true;
    }
  }

  // 4) A 4-GPU job may reclaim its sub-array by live-migrating 1-GPU
  //    borrowers out ("when 4-GPU jobs need to use corresponding resources
  //    again, job migration is performed", Sec. V-C).
  if (four_array && migrate_cross_borrowers_for(request)) {
    if (auto placement = find_placement(*env_.cluster, request, home)) {
      start_gpu_job(spec, *placement, cores, four_array,
                    /*cross_borrower=*/false);
      return true;
    }
  }
  note_pure_failure();
  return false;
}

bool CodaScheduler::evict_cpu_borrowers_for(cluster::NodeId node_id,
                                            int cores_needed) {
  const cluster::Node& node = env_.cluster->node(node_id);
  int deficit = cores_needed - node.free_cpus();
  if (deficit <= 0) {
    return true;
  }
  // Collect borrowers on this node, most recently started first (LIFO).
  std::vector<const RunningCpu*> borrowers;
  for (cluster::JobId job : cpu_jobs_by_node_[node_id]) {
    auto it = running_cpu_.find(job);
    CODA_ASSERT(it != running_cpu_.end());
    // User-facing inference outranks training and is never aborted.
    if (it->second.borrowed_reserved > 0 && !it->second.spec.user_facing) {
      borrowers.push_back(&it->second);
    }
  }
  std::sort(borrowers.begin(), borrowers.end(),
            [](const RunningCpu* a, const RunningCpu* b) {
              return a->start_seq > b->start_seq;
            });
  int reclaimable = 0;
  size_t take = 0;
  for (; take < borrowers.size() && reclaimable < deficit; ++take) {
    reclaimable += borrowers[take]->cores;
  }
  if (reclaimable < deficit) {
    return false;  // even evicting every borrower would not free enough
  }
  for (size_t i = 0; i < take; ++i) {
    const workload::JobSpec spec = borrowers[i]->spec;
    const auto status = env_.preempt_job(spec.id, /*keep_progress=*/false);
    CODA_ASSERT(status.ok());
    release_cpu(spec.id);
    // "The suspended CPU job re-enters the array head."
    cpu_array_.push_front(spec);
    ++preemptions_;
  }
  return true;
}

bool CodaScheduler::prepare_nodes_by_eviction(
    const sched::PlacementRequest& request, sched::IdRange range) {
  const int before = preemptions_;
  int prepared = 0;
  // Evicting borrowers on one node never changes another node's
  // (free_gpus, free_cpus), so the candidate set collected up front stays
  // exact while the loop below evicts in ascending id order.
  eviction_scratch_.clear();
  env_.cluster->placement_index().collect_eviction_candidates(
      request.gpus_per_node, request.cpus_per_node, range,
      &eviction_scratch_);
  std::sort(eviction_scratch_.begin(), eviction_scratch_.end());
  for (cluster::NodeId id : eviction_scratch_) {
    if (prepared >= request.nodes) {
      break;
    }
    if (evict_cpu_borrowers_for(id, request.cpus_per_node)) {
      ++prepared;
    }
  }
  // Candidates always have a core deficit, so a successful preparation
  // implies at least one actual eviction; no evictions means the cluster is
  // untouched and the caller's re-query would repeat its earlier miss.
  return preemptions_ != before;
}

bool CodaScheduler::migrate_cross_borrowers_for(
    const sched::PlacementRequest& request) {
  // Find 4-GPU-array nodes that would fit the request if their 1-GPU
  // borrowers were migrated away; migrate them (progress preserved).
  if (cross_borrower_count_ == 0) {
    return false;  // nothing to migrate; skip the per-node scan
  }
  int prepared = 0;
  for (const auto& node : env_.cluster->nodes()) {
    if (prepared >= request.nodes) {
      break;
    }
    // Per-node count first: scanning a node's allocation map for borrowers
    // is only worth it when one actually lives there.
    if (cross_borrowers_on_node_[node.id()] == 0 ||
        !node_in_four_array(node.id())) {
      continue;
    }
    std::vector<cluster::JobId> borrowers;
    int gpus_reclaimable = node.free_gpus();
    int cores_reclaimable = node.free_cpus();
    for (const cluster::Allocation& alloc : node.allocations()) {
      auto it = running_gpu_.find(alloc.job);
      if (it != running_gpu_.end() && it->second.cross_borrower) {
        borrowers.push_back(alloc.job);
        gpus_reclaimable += alloc.gpus;
        cores_reclaimable += alloc.cpus;
      }
    }
    if (borrowers.empty() || gpus_reclaimable < request.gpus_per_node ||
        cores_reclaimable < request.cpus_per_node) {
      continue;
    }
    for (cluster::JobId job : borrowers) {
      const workload::JobSpec spec = running_gpu_.at(job).spec;
      release_gpu(job, /*finished=*/false);
      const auto status = env_.preempt_job(job, /*keep_progress=*/true);
      CODA_ASSERT(status.ok());
      one_gpu_array_.push_front(spec);
      ++migrations_;
    }
    ++prepared;
  }
  return prepared >= request.nodes;
}

void CodaScheduler::start_gpu_job(const workload::JobSpec& spec,
                                  const sched::Placement& placement,
                                  int cores, bool four_array,
                                  bool cross_borrower) {
  const auto status = env_.start_job(spec.id, placement);
  CODA_ASSERT_MSG(status.ok(), "CODA proposed an infeasible GPU placement");
  RunningGpu r;
  r.spec = spec;
  r.placement = placement;
  r.cores_per_node = cores;
  r.four_array_job = four_array;
  r.cross_borrower = cross_borrower;
  r.generation = next_generation_++;
  for (const auto& np : placement.nodes) {
    gpu_cores_on_node_[np.node] += np.cpus;
    cross_borrowers_on_node_[np.node] += cross_borrower ? 1 : 0;
    refresh_cpu_bias(np.node);
  }
  cross_borrower_count_ += cross_borrower ? 1 : 0;
  // Begin tuning at the start cores.
  r.tuning_active = true;
  r.session = allocator_.begin(cores);
  r.outcome = {spec.id, spec.model, spec.requested_cpus, cores, cores, 0};
  schedule_tuning_tick(spec.id, r.generation);
  running_gpu_[spec.id] = std::move(r);
  (four_array ? four_gpu_array_ : one_gpu_array_).usage[spec.tenant] +=
      spec.total_gpus();
}

void CodaScheduler::schedule_cpu_array() {
  // CPU jobs may dip into the GPU reservation only while no GPU job waits
  // (Sec. V-C: "If CPU jobs burst and the GPU resource array is relatively
  // idle").
  //
  // Head core-counts that found no node stay cached: within this pass both
  // free and adjusted cores only shrink (starts consume, nothing releases —
  // a borrow-start zeroes its node's adjusted cores), so failures persist
  // across offer rounds; across kicks they hold while the index generation
  // (which also tracks bias changes) and the reservation are unchanged.
  const auto& index = env_.cluster->placement_index();
  if (index.generation() != cpu_failed_gen_ ||
      reserved_cores_ != cpu_failed_reserved_) {
    failed_cpu_reqs_.clear();
  }
  while (true) {
    // Borrowing reserved-but-idle cores is always allowed when preemption
    // can reclaim them: the abort-and-requeue path (Sec. V-C) is what makes
    // the loan safe, not the absence of a GPU backlog.
    const bool borrow_allowed =
        config_.multi_array_enabled ? config_.cpu_preemption_enabled : true;
    bool started = false;
    for (cluster::TenantId tenant :
         cpu_array_.drf_order(env_.cluster->total_cpus())) {
      const workload::JobSpec head = cpu_array_.queues[tenant].front();
      const int req = std::max(1, head.cpu_cores);
      // User-facing inference (Sec. V-A) outranks training: it may use
      // reserved cores like any CPU job, but is never evicted from them —
      // see evict_cpu_borrowers_for. Inference jobs are short, so the
      // reservation hold is transient.
      const bool may_borrow = borrow_allowed;
      if (std::find(failed_cpu_reqs_.begin(), failed_cpu_reqs_.end(), req) !=
          failed_cpu_reqs_.end()) {
        continue;  // this core count already failed in this index state
      }
      // Best fit over the per-node CPU-array budget: lowest
      // (adjusted cores, id) with adjusted >= req; only when no such node
      // exists, lowest (free_cpus, id) with free_cpus >= req (borrowing
      // reserved cores). The index's adjusted table equals
      // cpu_array_free_cores() for every node (see refresh_cpu_bias).
      bool best_borrows = false;
      cluster::NodeId best = index.best_adjusted_fit(req);
      if (best == cluster::PlacementIndex::kNone && may_borrow) {
        best = index.best_free_cpu_fit(req);
        best_borrows = true;
      }
      if (best == cluster::PlacementIndex::kNone) {
        failed_cpu_reqs_.push_back(req);
        continue;  // this tenant's head does not fit; try the next tenant
      }
      const int normal = cpu_array_free_cores(env_.cluster->node(best));
      CODA_ASSERT(best_borrows || normal >= req);
      sched::Placement placement;
      placement.nodes.push_back(sched::NodePlacement{best, req, 0});
      const int borrowed = best_borrows ? req - normal : 0;
      const auto status = env_.start_job(head.id, placement);
      CODA_ASSERT_MSG(status.ok(), "CODA proposed an infeasible CPU placement");
      RunningCpu rc;
      rc.spec = head;
      rc.node = best;
      rc.cores = req;
      rc.borrowed_reserved = std::max(0, borrowed);
      rc.start_seq = next_seq_++;
      note_cpu_job_started(rc);
      running_cpu_[head.id] = rc;
      cpu_array_.usage[head.tenant] += req;
      cpu_array_.queues[tenant].pop_front();
      if (config_.static_bw_cap_gbps > 0.0 && !head.user_facing) {
        // Kelp-like static partitioning: cap unconditionally at start.
        // Fails silently on nodes without MBA (Kelp needs the hardware).
        (void)env_.set_bw_cap(best, head.id, config_.static_bw_cap_gbps);
      }
      started = true;
      break;
    }
    if (!started) {
      cpu_failed_gen_ = index.generation();
      cpu_failed_reserved_ = reserved_cores_;
      return;
    }
  }
}

// ------------------------------------------------------------------- tuning

void CodaScheduler::schedule_tuning_tick(cluster::JobId job,
                                         uint64_t generation) {
  env_.sim->schedule_at(env_.sim->now() + config_.allocator.profile_step_s,
                        {simcore::kTagTuningTick, job, generation});
}

void CodaScheduler::on_tuning_tick(cluster::JobId job, uint64_t generation) {
  auto it = running_gpu_.find(job);
  if (it == running_gpu_.end() || it->second.generation != generation ||
      !it->second.tuning_active) {
    return;  // job finished or migrated; stale timer
  }
  RunningGpu& r = it->second;
  const double util = env_.gpu_util->gpu_utilization(job);
  if (util < 0.0) {
    return;
  }
  auto next = allocator_.step(r.session, util);

  const auto apply_cores = [&](int cores) -> bool {
    std::vector<std::pair<cluster::NodeId, int>> applied;
    for (const auto& np : r.placement.nodes) {
      const auto status = env_.resize_job(job, np.node, cores);
      if (!status.ok()) {
        for (const auto& [node, old] : applied) {
          const auto rollback = env_.resize_job(job, node, old);
          CODA_ASSERT(rollback.ok());
          gpu_cores_on_node_[node] += old - cores;
          refresh_cpu_bias(node);
        }
        return false;
      }
      applied.emplace_back(np.node, r.cores_per_node);
      gpu_cores_on_node_[np.node] += cores - r.cores_per_node;
      refresh_cpu_bias(np.node);
    }
    r.cores_per_node = cores;
    for (auto& np : r.placement.nodes) {
      np.cpus = cores;
    }
    return true;
  };

  if (next.has_value()) {
    if (apply_cores(*next)) {
      schedule_tuning_tick(job, generation);
      return;
    }
    // The node cannot grant the change: settle where we are.
    allocator_.settle(r.session, r.cores_per_node);
  }
  // Converged: apply the final choice if it differs.
  if (r.session.current != r.cores_per_node &&
      !apply_cores(r.session.current)) {
    allocator_.settle(r.session, r.cores_per_node);
  }
  end_tuning(r);
}

void CodaScheduler::end_tuning(RunningGpu& r) {
  r.tuning_active = false;
  r.outcome.final_cpus = r.cores_per_node;
  r.outcome.profile_steps = r.session.steps;
  tuning_outcomes_.push_back(r.outcome);
  allocator_.finish(r.spec, r.session);  // records N_opt into the history
}

double CodaScheduler::expected_utilization(cluster::JobId job) const {
  auto it = running_gpu_.find(job);
  if (it == running_gpu_.end()) {
    return -1.0;
  }
  const RunningGpu& r = it->second;
  return perf_.gpu_utilization(r.spec.model, r.spec.train_config,
                               r.cores_per_node);
}

void CodaScheduler::update_reservation_from_history() {
  if (auto mean = history_.mean_cores_per_gpu()) {
    const auto& node_cfg = env_.cluster->config().node;
    reserved_cores_ = std::clamp(
        static_cast<int>(std::lround(*mean * node_cfg.gpus)), 2,
        node_cfg.cores - 2);
  }
  if (auto frac = history_.four_gpu_fraction()) {
    // Undersize the 4-GPU sub-array slightly: 4-GPU jobs spilling into the
    // 1-GPU array just borrow nodes, while 1-GPU borrowers in the 4-GPU
    // array get migrated out when reclaimed — undersizing avoids that churn.
    four_array_nodes_ = static_cast<int>(std::lround(
        std::clamp(*frac * 0.8, 0.1, 0.6) *
        static_cast<double>(env_.cluster->node_count())));
  }
  // A new reservation changes every node's bias.
  refresh_all_cpu_bias();
}

// -------------------------------------------------------------- termination

void CodaScheduler::on_job_evicted(const workload::JobSpec& spec) {
  // Node failure killed the job mid-flight: drop its record (no tuning
  // outcome, no history record — the run is void), then re-queue it at the
  // head of its array or hand it to the retry policy (delayed resubmission
  // through the normal submit() path).
  if (spec.is_gpu_job()) {
    release_gpu(spec.id, /*finished=*/false);
  } else {
    release_cpu(spec.id);
  }
  if (retry_after_eviction(spec)) {
    (spec.is_gpu_job() ? gpu_array_for(spec) : cpu_array_).push_front(spec);
  }
}

void CodaScheduler::on_job_finished(const workload::JobSpec& spec) {
  if (spec.is_gpu_job()) {
    release_gpu(spec.id, /*finished=*/true);
  } else {
    release_cpu(spec.id);
  }
}

void CodaScheduler::release_gpu(cluster::JobId job, bool finished) {
  auto it = running_gpu_.find(job);
  CODA_ASSERT(it != running_gpu_.end());
  RunningGpu& r = it->second;
  (r.four_array_job ? four_gpu_array_ : one_gpu_array_)
      .usage[r.spec.tenant] -= r.spec.total_gpus();
  if (finished && r.tuning_active) {
    end_tuning(r);  // finished mid-tuning: account what it ran with
  }
  for (const auto& np : r.placement.nodes) {
    gpu_cores_on_node_[np.node] -= np.cpus;
    cross_borrowers_on_node_[np.node] -= r.cross_borrower ? 1 : 0;
    refresh_cpu_bias(np.node);
  }
  cross_borrower_count_ -= r.cross_borrower ? 1 : 0;
  running_gpu_.erase(it);
}

void CodaScheduler::release_cpu(cluster::JobId job) {
  auto it = running_cpu_.find(job);
  CODA_ASSERT(it != running_cpu_.end());
  const RunningCpu& rc = it->second;
  cpu_array_.usage[rc.spec.tenant] -= rc.cores;
  auto& jobs = cpu_jobs_by_node_[rc.node];
  jobs.erase(std::remove(jobs.begin(), jobs.end(), job), jobs.end());
  borrowed_on_node_[rc.node] -= rc.borrowed_reserved;
  total_borrowed_ -= rc.borrowed_reserved;
  CODA_ASSERT(borrowed_on_node_[rc.node] >= 0);
  refresh_cpu_bias(rc.node);
  running_cpu_.erase(it);
  // The job leaves the node, so any eliminator throttle on it (MBA cap or
  // halved cores) is void; a stale record would otherwise shadow the job
  // when it restarts and corrupt the release projection.
  eliminator_->forget_job(job);
}

}  // namespace coda::core
