#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "simcore/event_tags.h"
#include "util/assert.h"
#include "util/logging.h"
#include "util/strings.h"

namespace coda::sim {

ClusterEngine::ClusterEngine(const EngineConfig& config,
                             sched::Scheduler* scheduler, bool restore_mode)
    : config_(config),
      scheduler_(scheduler),
      cluster_(config.cluster),
      mba_(&cluster_),
      noise_rng_(config.noise_seed),
      event_log_(config.record_events) {
  jobs_on_node_.resize(cluster_.node_count());
  occupied_nodes_.reset(cluster_.node_count());
  hot_nodes_.reset(cluster_.node_count());
  node_reports_.resize(cluster_.node_count());
  node_pressure_.assign(cluster_.node_count(), 0.0);
  node_mem_terms_.assign(cluster_.node_count(), 0.0);
  for (auto& list : jobs_on_node_) {
    list.reserve(16);  // a 28-core node rarely hosts more residents
  }
  footprints_scratch_.reserve(32);
  node_dirty_.assign(cluster_.node_count(), 0);
  dirty_nodes_.reserve(cluster_.node_count());
  for (uint32_t kind :
       {simcore::kTagArrival, simcore::kTagJobFinish, simcore::kTagNodeFail,
        simcore::kTagNodeRecover, simcore::kTagMetricsTick}) {
    CODA_ASSERT(sim_.register_sink(kind, this));
  }
  if (config_.incremental_recompute) {
    // Drain the dirty set after every dispatched event: each event's
    // mutations happen at one simulated instant, so one recompute per
    // touched node at the end of the dispatch observes the same state the
    // eager path's last recompute would.
    sim_.set_post_dispatch(this);
  }

  series_.gpu_active = &metrics_.series_mut("gpu_active_rate");
  series_.cpu_active = &metrics_.series_mut("cpu_active_rate");
  series_.gpu_frag = &metrics_.series_mut("gpu_frag_rate");
  series_.gpu_frag_case2 = &metrics_.series_mut("gpu_frag_case2_rate");
  series_.pending_jobs = &metrics_.series_mut("pending_jobs");
  series_.pending_gpu_jobs = &metrics_.series_mut("pending_gpu_jobs");
  series_.gpu_util_active = &metrics_.series_mut("gpu_util_active");
  series_.cpu_util_active = &metrics_.series_mut("cpu_util_active");
  series_.mem_pressure = &metrics_.series_mut("mem_pressure_mean");

  sched::SchedulerEnv env;
  env.sim = &sim_;
  env.cluster = &cluster_;
  env.defer_periodics = restore_mode;
  env.start_job = [this](cluster::JobId id, const sched::Placement& p) {
    return start_job(id, p);
  };
  env.preempt_job = [this](cluster::JobId id, bool keep) {
    return preempt_job(id, keep);
  };
  env.resize_job = [this](cluster::JobId id, cluster::NodeId node,
                          int cpus) { return resize_job(id, node, cpus); };
  env.gpu_util = this;
  env.bandwidth = this;
  env.set_pressure_floor = [this](double floor) { set_pressure_floor(floor); };
  env.set_bw_cap = [this](cluster::NodeId node, cluster::JobId id,
                          double cap) {
    auto status = mba_.set_cap(node, id, cap);
    if (status.ok()) {
      event_log_.record(sim_.now(), EventKind::kBwCap, id,
                        static_cast<int>(node), cap);
      mark_node_dirty(node);
    }
    return status;
  };
  env.clear_bw_cap = [this](cluster::NodeId node, cluster::JobId id) {
    mba_.clear_cap(node, id);
    event_log_.record(sim_.now(), EventKind::kBwCapClear, id,
                      static_cast<int>(node));
    mark_node_dirty(node);
  };
  env.bw_cap = [this](cluster::NodeId node, cluster::JobId id) {
    return mba_.cap(node, id);
  };
  env.is_pending = [this](cluster::JobId id) { return is_pending(id); };
  env.job_spec = [this](cluster::JobId id) -> const workload::JobSpec& {
    return jobs_.at(id).spec;
  };
  env.abandon_job = [this](cluster::JobId id) { abandon_job(id); };
  scheduler_->attach(env);

  CODA_ASSERT(config_.metrics_period_s > 0.0);
  if (!restore_mode) {
    sim_.schedule_at(config_.metrics_period_s, {simcore::kTagMetricsTick});
  }
}

void ClusterEngine::on_event(const simcore::EventTag& tag) {
  switch (tag.kind) {
    case simcore::kTagArrival:
      on_arrival(tag.a);
      break;
    case simcore::kTagJobFinish:
      finish_job(tag.a);
      break;
    case simcore::kTagNodeFail:
      (void)fail_node(static_cast<cluster::NodeId>(tag.a));
      break;
    case simcore::kTagNodeRecover:
      (void)recover_node(static_cast<cluster::NodeId>(tag.a));
      break;
    case simcore::kTagMetricsTick:
      sample_metrics();
      sim_.schedule_at(sim_.now() + config_.metrics_period_s, tag);
      break;
  }
}

void ClusterEngine::after_dispatch() { flush_dirty_nodes(); }

void ClusterEngine::repost(double t, const simcore::EventTag& tag) {
  if (tag.kind == simcore::kTagJobFinish) {
    const JobTable::Slot* slot = jobs_.find(tag.a);
    CODA_ASSERT(slot != nullptr && slot->running());
    arm_finish(running(*slot), t);
  } else {
    sim_.schedule_at(t, tag);
  }
}

ClusterEngine::~ClusterEngine() = default;

double ClusterEngine::total_work_of(const workload::JobSpec& spec) const {
  return spec.is_gpu_job() ? spec.iterations : spec.cpu_work_core_s;
}

void ClusterEngine::load_trace(const std::vector<workload::JobSpec>& trace) {
  jobs_.reserve(trace.size());
  for (const auto& spec : trace) {
    inject(spec, spec.submit_time);
  }
}

void ClusterEngine::inject(const workload::JobSpec& spec, double t) {
  JobTable::Slot* slot = jobs_.add(spec);
  CODA_ASSERT_MSG(slot != nullptr, "duplicate job id injected");
  slot->record.submit_time = t;
  sim_.schedule_at(t, {simcore::kTagArrival, spec.id});
}

void ClusterEngine::on_arrival(cluster::JobId id) {
  JobTable::Slot* slot = jobs_.find(id);
  CODA_ASSERT(slot != nullptr);
  jobs_.set_pending(*slot, sim_.now());
  ++submitted_count_;
  event_log_.record(sim_.now(), EventKind::kArrival, id);
  scheduler_->submit(slot->record.spec);
  scheduler_->kick();
}

void ClusterEngine::run_until(double until) {
  // Mutations made through the direct API (tests injecting failures, the
  // service layer) land between dispatches; sync before the queue advances.
  flush_dirty_nodes();
  sim_.run_until(until);
}

void ClusterEngine::drain(double hard_cap) {
  // Periodic metric/eliminator events keep the queue non-empty forever, so
  // advance in chunks and stop once every submitted job completed or was
  // abandoned by the retry policy.
  flush_dirty_nodes();
  while (sim_.now() < hard_cap &&
         finished_count_ + abandoned_count_ < jobs_.size()) {
    sim_.run_until(std::min(hard_cap, sim_.now() + 6.0 * 3600.0));
  }
}

// ------------------------------------------------------ scheduler callbacks

util::Status ClusterEngine::start_job(cluster::JobId id,
                                      const sched::Placement& placement) {
  JobTable::Slot* slot = jobs_.find(id);
  if (slot == nullptr) {
    return util::Error{util::ErrorCode::kNotFound,
                       util::strfmt("unknown job %llu",
                                    static_cast<unsigned long long>(id))};
  }
  if (slot->running()) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "job is already running"};
  }
  if (placement.nodes.empty()) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "placement has no nodes"};
  }
  // Allocate on every node, rolling back on failure.
  for (size_t i = 0; i < placement.nodes.size(); ++i) {
    const auto& np = placement.nodes[i];
    auto status = cluster_.node(np.node).allocate(id, np.cpus, np.gpus);
    if (!status.ok()) {
      for (size_t j = 0; j < i; ++j) {
        auto release = cluster_.node(placement.nodes[j].node).release(id);
        CODA_ASSERT(release.ok());
      }
      return status;
    }
  }

  JobRecord& record = slot->record;
  const uint32_t run = acquire_running();
  jobs_.set_run(*slot, run);
  RunningJob& job = run_pool_[run];
  job.id = id;
  job.spec = &record.spec;
  job.placement.nodes.assign(placement.nodes.begin(), placement.nodes.end());
  job.remaining = slot->has_remaining() ? slot->remaining()
                                        : total_work_of(record.spec);
  // The start state is durable: a fresh job restarts from zero anyway, and
  // a restarted one resumes from persisted (checkpointed) progress.
  job.ckpt_remaining = job.remaining;
  job.last_update = sim_.now();
  // Build the flat per-node vector to its final (sorted) size before any
  // Resident caches a PerNodeState address: push_back after that point
  // could reallocate the buffer out from under the resident lists.
  job.nodes.reserve(placement.nodes.size());
  for (const auto& np : placement.nodes) {
    job.nodes.emplace_back(np.node, PerNodeState{});
  }
  std::sort(job.nodes.begin(), job.nodes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  add_tick_cells(job);
  for (const auto& np : placement.nodes) {
    PerNodeState& st = *node_state(job, np.node);
    st.cpus = np.cpus;
    rebuild_footprint(job, np.node);
    jobs_on_node_[np.node].push_back(Resident{id, &job, &st});
    if (jobs_on_node_[np.node].size() == 1) {
      occupied_nodes_.insert(np.node);
    }
  }
  for (const auto& np : placement.nodes) {
    mark_node_dirty(np.node);
  }

  // Queueing accounting.
  CODA_ASSERT(slot->pending());
  record.queue_time_total += sim_.now() - slot->pending_since();
  if (record.first_start_time < 0.0) {
    record.first_start_time = sim_.now();
  }
  if (record.evict_count > record.restart_count) {
    // This start is the recovery from a node-failure eviction (migrations
    // and scheduler preemptions do not count as restarts).
    ++record.restart_count;
  }
  jobs_.clear_pending(*slot);
  event_log_.record(sim_.now(), EventKind::kStart, id,
                    static_cast<int>(placement.nodes.front().node),
                    placement.total_cpus());
  return util::Status::Ok();
}

util::Status ClusterEngine::preempt_job(cluster::JobId id,
                                        bool keep_progress) {
  auto status = stop_running_job(id, keep_progress);
  if (status.ok()) {
    event_log_.record(sim_.now(), EventKind::kPreempt, id, -1,
                      keep_progress ? 1.0 : 0.0);
  }
  return status;
}

util::Status ClusterEngine::stop_running_job(cluster::JobId id,
                                             bool keep_progress) {
  JobTable::Slot* slot = jobs_.find(id);
  if (slot == nullptr || !slot->running()) {
    return util::Error{util::ErrorCode::kNotFound, "job is not running"};
  }
  RunningJob& job = running(*slot);
  advance_progress(job);
  JobRecord& record = slot->record;
  record.busy_core_s += job.busy_core_s;
  record.busy_gpu_s += job.busy_gpu_s;
  if (keep_progress) {
    jobs_.set_remaining(*slot, job.remaining);
  } else {
    // Everything computed since the last durable point is discarded:
    // charge it as wasted work and roll back to the checkpoint (or to
    // nothing for a job that never checkpoints).
    record.wasted_core_s += job.ckpt_busy_core_s;
    record.wasted_gpu_s += job.ckpt_busy_gpu_s;
    if (job.spec->checkpointing()) {
      jobs_.set_remaining(*slot, job.ckpt_remaining);
    } else {
      jobs_.clear_remaining(*slot);
    }
  }
  sim_.cancel(job.finish_event);
  detach_job(*slot);
  record.preempt_count += 1;
  jobs_.set_pending(*slot, sim_.now());
  return util::Status::Ok();
}

util::Status ClusterEngine::resize_job(cluster::JobId id,
                                       cluster::NodeId node, int new_cpus) {
  JobTable::Slot* slot = jobs_.find(id);
  if (slot == nullptr || !slot->running()) {
    return util::Error{util::ErrorCode::kNotFound, "job is not running"};
  }
  RunningJob& job = running(*slot);
  PerNodeState* st = node_state(job, node);
  if (st == nullptr) {
    return util::Error{util::ErrorCode::kNotFound,
                       "job holds nothing on that node"};
  }
  auto status = cluster_.node(node).resize_cpus(id, new_cpus);
  if (!status.ok()) {
    return status;
  }
  st->cpus = new_cpus;
  for (auto& np : job.placement.nodes) {
    if (np.node == node) {
      np.cpus = new_cpus;
    }
  }
  rebuild_footprint(job, node);
  mark_node_dirty(node);
  event_log_.record(sim_.now(), EventKind::kResize, id,
                    static_cast<int>(node), new_cpus);
  return util::Status::Ok();
}

util::Status ClusterEngine::fail_node(cluster::NodeId node_id) {
  cluster::Node& node = cluster_.node(node_id);
  if (node.failed()) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "node is already down"};
  }
  // Evict every resident job (multi-node jobs die wholesale: the failed
  // leg takes the gang down). Snapshot ids first: eviction mutates lists.
  std::vector<cluster::JobId> victims;
  victims.reserve(jobs_on_node_[node_id].size());
  for (const Resident& r : jobs_on_node_[node_id]) {
    victims.push_back(r.id);
  }
  for (cluster::JobId id : victims) {
    JobTable::Slot& slot = *jobs_.find(id);
    if (!slot.running()) {
      continue;  // already evicted as another leg of a multi-node job
    }
    const workload::JobSpec spec = slot.record.spec;
    auto status = stop_running_job(id, /*keep_progress=*/false);
    CODA_ASSERT(status.ok());
    slot.record.evict_count += 1;
    event_log_.record(sim_.now(), EventKind::kEvict, id,
                      static_cast<int>(node_id));
    scheduler_->on_job_evicted(spec);
  }
  node.set_failed(true);
  ++node_failures_;
  event_log_.record(sim_.now(), EventKind::kNodeFail, 0,
                    static_cast<int>(node_id));
  metrics_.increment("node_failures");
  scheduler_->kick();
  return util::Status::Ok();
}

util::Status ClusterEngine::recover_node(cluster::NodeId node_id) {
  cluster::Node& node = cluster_.node(node_id);
  if (!node.failed()) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "node is not down"};
  }
  node.set_failed(false);
  event_log_.record(sim_.now(), EventKind::kNodeRecover, 0,
                    static_cast<int>(node_id));
  scheduler_->kick();
  return util::Status::Ok();
}

void ClusterEngine::schedule_node_outage(cluster::NodeId node, double at,
                                         double outage_s) {
  CODA_ASSERT(outage_s > 0.0);
  sim_.schedule_at(at, {simcore::kTagNodeFail, node});
  sim_.schedule_at(at + outage_s, {simcore::kTagNodeRecover, node});
}

void ClusterEngine::finish_job(cluster::JobId id) {
  JobTable::Slot* slot = jobs_.find(id);
  CODA_ASSERT(slot != nullptr && slot->running());
  RunningJob& job = running(*slot);
  advance_progress(job);

  JobRecord& record = slot->record;
  record.finish_time = sim_.now();
  record.completed = true;
  record.final_cpus = job.placement.nodes.front().cpus;
  record.busy_core_s += job.busy_core_s;
  record.busy_gpu_s += job.busy_gpu_s;

  detach_job(*slot);
  jobs_.clear_remaining(*slot);
  ++finished_count_;
  event_log_.record(sim_.now(), EventKind::kFinish, id);
  scheduler_->on_job_finished(record.spec);
  scheduler_->kick();
}

uint32_t ClusterEngine::acquire_running() {
  if (run_free_.empty()) {
    run_pool_.emplace_back();
    return static_cast<uint32_t>(run_pool_.size() - 1);
  }
  const uint32_t run = run_free_.back();
  run_free_.pop_back();
  return run;
}

void ClusterEngine::detach_job(JobTable::Slot& slot) {
  const cluster::JobId id = slot.id();
  const std::vector<sched::NodePlacement>& legs =
      running(slot).placement.nodes;
  for (const auto& np : legs) {
    auto& list = jobs_on_node_[np.node];
    list.erase(std::remove_if(list.begin(), list.end(),
                              [id](const Resident& r) { return r.id == id; }),
               list.end());
    if (list.empty()) {
      occupied_nodes_.erase(np.node);
    }
    auto release = cluster_.node(np.node).release(id);
    CODA_ASSERT(release.ok());
  }
  mba_.clear_job(id);
  tick_terms_.remove(id);
  for (const auto& np : legs) {
    mark_node_dirty(np.node);
  }
  run_pool_[slot.run()] = RunningJob{};
  run_free_.push_back(slot.run());
  jobs_.clear_run(slot);
}

void ClusterEngine::abandon_job(cluster::JobId id) {
  JobTable::Slot* slot = jobs_.find(id);
  CODA_ASSERT_MSG(slot != nullptr, "abandoning an unknown job");
  JobRecord& record = slot->record;
  CODA_ASSERT_MSG(!record.completed && !record.abandoned,
                  "abandoning a finished job");
  CODA_ASSERT_MSG(!slot->running(), "abandoning a running job");
  record.abandoned = true;
  if (slot->pending()) {
    record.queue_time_total += sim_.now() - slot->pending_since();
    jobs_.clear_pending(*slot);
  }
  jobs_.clear_remaining(*slot);
  ++abandoned_count_;
  event_log_.record(sim_.now(), EventKind::kAbandon, id);
  metrics_.increment("jobs_abandoned");
}

// ----------------------------------------------------- contention and rates

ClusterEngine::PerNodeState* ClusterEngine::node_state(RunningJob& job,
                                                       cluster::NodeId node) {
  for (auto& [n, st] : job.nodes) {
    if (n == node) {
      return &st;
    }
  }
  return nullptr;
}

void ClusterEngine::rebuild_footprint(RunningJob& job, cluster::NodeId node) {
  PerNodeState& st = *node_state(job, node);
  perfmodel::ResourceFootprint& fp = st.footprint;
  fp.job = job.id;
  const workload::JobSpec& spec = *job.spec;
  if (spec.is_gpu_job()) {
    const auto& params = perfmodel::model_params(spec.model);
    fp.is_gpu_job = true;
    fp.mem_bw_gbps =
        perf_.mem_bw_demand_gbps(spec.model, spec.train_config, st.cpus);
    fp.pcie_gbps =
        perf_.pcie_demand_gbps(spec.model, spec.train_config, st.cpus);
    fp.llc_mb = perf_.llc_demand_mb(spec.model, spec.train_config);
    fp.bw_latency_sensitivity = params.bw_latency_sensitivity;
    fp.bw_share_dependence = params.bw_share_dependence;
    fp.llc_sensitivity = params.llc_sensitivity;
    fp.mem_bw_cap_gbps = -1.0;  // DNN jobs are never throttled
  } else {
    fp.is_gpu_job = false;
    // A CPU job shrunk by the eliminator moves proportionally less data.
    const double scale =
        spec.cpu_cores > 0
            ? static_cast<double>(st.cpus) / spec.cpu_cores
            : 1.0;
    fp.mem_bw_gbps = spec.mem_bw_gbps * std::min(1.0, scale);
    fp.pcie_gbps = 0.0;
    fp.llc_mb = spec.llc_mb;
    fp.bw_bound_fraction = spec.bw_bound_fraction;
  }
}

void ClusterEngine::mark_node_dirty(cluster::NodeId node) {
  if (!config_.incremental_recompute) {
    recompute_node(node);
    return;
  }
  // Rates are piecewise constant and integrated lazily, so progress must be
  // brought up to now() at exactly the instants the eager path would have
  // (each advance rounds; a different partition of the same interval gives
  // different low bits). All of this dispatch's later mutations happen at
  // the same now(), making the deferred recompute's advance a no-op.
  for (const Resident& r : jobs_on_node_[node]) {
    advance_progress(*r.job);
  }
  if (!node_dirty_[node]) {
    node_dirty_[node] = 1;
    dirty_nodes_.push_back(node);
  }
}

void ClusterEngine::flush_dirty_nodes() {
  if (dirty_nodes_.empty()) {
    return;
  }
  ++stats_.dirty_flushes;
  // Ascending node order keeps the recompute sequence — and with it the
  // finish-event insertion order — independent of mutation order.
  std::sort(dirty_nodes_.begin(), dirty_nodes_.end());
  for (cluster::NodeId node : dirty_nodes_) {
    node_dirty_[node] = 0;
    recompute_node(node);
  }
  dirty_nodes_.clear();
}

void ClusterEngine::recompute_node(cluster::NodeId node) {
  ++stats_.node_recomputes;
  std::vector<perfmodel::ResourceFootprint>& footprints = footprints_scratch_;
  footprints.clear();
  const std::vector<Resident>& residents = jobs_on_node_[node];
  for (const Resident& r : residents) {
    PerNodeState& st = *r.state;
    if (!st.footprint.is_gpu_job) {
      st.footprint.mem_bw_cap_gbps = mba_.cap(node, r.id);  // live MBA view
    }
    footprints.push_back(st.footprint);
  }
  contention_.resolve_into(cluster_.node(node).config(), footprints,
                           &node_reports_[node]);
  cache_node_telemetry(node);
  const auto& report = node_reports_[node];
  // resolve_into emits one row per footprint in input order, so the rows
  // zip with the resident list — no per-row job lookup.
  CODA_ASSERT(report.jobs.size() == residents.size());
  for (size_t i = 0; i < report.jobs.size(); ++i) {
    CODA_ASSERT(report.jobs[i].job == residents[i].id);
    PerNodeState& st = *residents[i].state;
    st.factors = report.jobs[i].factors;
    st.cpu_rate_factor = report.jobs[i].cpu_rate_factor;
    st.achieved_bw = report.jobs[i].achieved_bw_gbps;
    update_rate(*residents[i].job);
  }
}

void ClusterEngine::cache_node_telemetry(cluster::NodeId node) {
  const perfmodel::NodeContentionReport& report = node_reports_[node];
  // Every report row is a live job (finish and evict mark the node dirty),
  // so this row sum equals sample_into's live-filtered total: same rows,
  // same order, same bits.
  const double cap = cluster_.node(node).config().mem_bw_gbps;
  double pressure = 0.0;
  if (cap > 0.0) {
    double total = 0.0;
    for (const auto& jc : report.jobs) {
      total += jc.achieved_bw_gbps;
    }
    pressure = total / cap;
  }
  node_pressure_[node] = pressure;
  node_mem_terms_[node] = std::min(1.0, report.mem_pressure);
  const bool hot =
      !jobs_on_node_[node].empty() && pressure >= pressure_floor_;
  if (hot != hot_nodes_.contains(node)) {
    if (hot) {
      hot_nodes_.insert(node);
    } else {
      hot_nodes_.erase(node);
    }
  }
}

void ClusterEngine::set_pressure_floor(double floor) {
  pressure_floor_ = floor;
  hot_nodes_.reset(cluster_.node_count());
  occupied_nodes_.for_each([&](cluster::NodeId id) {
    if (node_pressure_[id] >= floor) {
      hot_nodes_.insert(id);
    }
  });
}

void ClusterEngine::advance_progress(RunningJob& job) {
  const double dt = sim_.now() - job.last_update;
  if (dt > 0.0) {
    job.remaining = std::max(0.0, job.remaining - job.rate * dt);
    const double cores = static_cast<double>(job.placement.total_cpus());
    const double gpus = static_cast<double>(job.spec->total_gpus());
    job.busy_core_s += dt * cores;
    job.busy_gpu_s += dt * gpus;
    job.ckpt_busy_core_s += dt * cores;
    job.ckpt_busy_gpu_s += dt * gpus;
    if (job.spec->checkpointing()) {
      // Rates are piecewise constant between advance_progress calls, so the
      // last checkpoint boundary inside this segment can be reconstructed
      // exactly: `since` seconds ago, when `rate * since` less work was done.
      job.time_since_ckpt += dt;
      const double interval = job.spec->checkpoint_interval_s;
      if (job.time_since_ckpt >= interval) {
        const double since = std::fmod(job.time_since_ckpt, interval);
        job.ckpt_remaining = job.remaining + job.rate * since;
        job.time_since_ckpt = since;
        job.ckpt_busy_core_s = since * cores;
        job.ckpt_busy_gpu_s = since * gpus;
      }
    }
  }
  job.last_update = sim_.now();
}

void ClusterEngine::update_rate(RunningJob& job) {
  advance_progress(job);
  ++stats_.rate_updates;
  const double old_rate = job.rate;
  const workload::JobSpec& spec = *job.spec;
  if (spec.is_gpu_job()) {
    // The slowest node gates a synchronous data-parallel job.
    double iter = 0.0;
    double util = 1.0;
    for (auto& [node, st] : job.nodes) {
      const int cores = std::max(1, st.cpus);
      uint64_t prep_bits;
      uint64_t gpu_bits;
      std::memcpy(&prep_bits, &st.factors.prep_inflation, sizeof(prep_bits));
      std::memcpy(&gpu_bits, &st.factors.gpu_inflation, sizeof(gpu_bits));
      if (st.eval_cpus != cores || st.eval_prep_bits != prep_bits ||
          st.eval_gpu_bits != gpu_bits) {
        st.eval_iter = perf_.iter_time(spec.model, spec.train_config, cores,
                                       st.factors);
        st.eval_util = perf_.gpu_utilization(spec.model, spec.train_config,
                                             cores, st.factors);
        st.eval_prep = perf_.prep_time(spec.model, spec.train_config, cores,
                                       st.factors);
        st.eval_cpus = cores;
        st.eval_prep_bits = prep_bits;
        st.eval_gpu_bits = gpu_bits;
      }
      iter = std::max(iter, st.eval_iter);
      util = std::min(util, st.eval_util);
    }
    CODA_ASSERT(iter > 0.0);
    job.rate = 1.0 / iter;
    job.gpu_util = util;
  } else {
    const auto& st = job.nodes.front().second;
    job.rate = std::max(1, st.cpus) * st.cpu_rate_factor;
    job.gpu_util = 0.0;
  }
  if (spec.checkpointing() && spec.checkpoint_overhead_s > 0.0) {
    // Writing a checkpoint stalls compute for overhead_s out of every
    // interval_s of wall time; amortize the stall into the rate.
    job.rate *= spec.checkpoint_interval_s /
                (spec.checkpoint_interval_s + spec.checkpoint_overhead_s);
  }
  // Before the unchanged-rate return: a leg's cores can move while the rate
  // stays put.
  store_tick_terms(job);
  // An unchanged rate leaves the finish instant where it is: the pending
  // event's time equals now + remaining/rate in exact arithmetic (and with
  // LESS accumulated rounding — it was anchored when the rate last actually
  // changed). Skipping the cancel + re-push keeps neighbor-rate refreshes —
  // the bulk of recompute work on uncontended nodes — entirely off the heap.
  // Exact equality, not epsilon: a rate that moved even one ulp must move
  // its event, or determinism across recompute orders is lost.
  if (job.rate == old_rate && sim_.pending(job.finish_event)) {
    ++stats_.reschedules_skipped;
    return;
  }
  reschedule_finish(job);
}

void ClusterEngine::add_tick_cells(RunningJob& job) {
  job.tick_cells = tick_terms_.add(
      job.id, job.spec->is_gpu_job() ? static_cast<uint32_t>(job.nodes.size())
                                     : 1);
}

void ClusterEngine::store_tick_terms(RunningJob& job) {
  const workload::JobSpec& spec = *job.spec;
  if (!spec.is_gpu_job()) {
    const PerNodeState& st = job.nodes.front().second;
    tick_terms_.set_cores(job.tick_cells, st.cpus * st.cpu_rate_factor,
                          st.cpus);
    return;
  }
  tick_terms_.set_gpu(job.tick_cells, job.gpu_util, spec.total_gpus());
  const double iter = 1.0 / job.rate;
  uint32_t cell = job.tick_cells;
  for (const auto& [node, st] : job.nodes) {
    // update_rate has just synced the eval cache with (cpus, factors), so
    // the prep stage costs no model lookup here. The bit-compare fallback
    // covers a caller that did not; it returns the identical value.
    uint64_t prep_bits;
    uint64_t gpu_bits;
    std::memcpy(&prep_bits, &st.factors.prep_inflation, sizeof(prep_bits));
    std::memcpy(&gpu_bits, &st.factors.gpu_inflation, sizeof(gpu_bits));
    const bool cached = st.eval_cpus == std::max(1, st.cpus) &&
                        st.eval_prep_bits == prep_bits &&
                        st.eval_gpu_bits == gpu_bits;
    const double prep =
        cached ? st.eval_prep
               : perf_.prep_time(spec.model, spec.train_config,
                                 std::max(1, st.cpus), st.factors);
    tick_terms_.set_cores(cell++, st.cpus * std::min(1.0, prep / iter),
                          st.cpus);
  }
}

void ClusterEngine::reschedule_finish(RunningJob& job) {
  sim_.cancel(job.finish_event);
  CODA_ASSERT(job.rate > 0.0);
  ++stats_.reschedules;
  arm_finish(job, sim_.now() + job.remaining / job.rate);
}

void ClusterEngine::arm_finish(RunningJob& job, double t) {
  job.finish_event = sim_.schedule_at(t, {simcore::kTagJobFinish, job.id});
}

// ----------------------------------------------------------------- probes

telemetry::NodeBandwidthSample ClusterEngine::sample(
    cluster::NodeId node) const {
  telemetry::NodeBandwidthSample s;
  sample_into(node, &s);
  return s;
}

void ClusterEngine::sample_into(cluster::NodeId node,
                                telemetry::NodeBandwidthSample* out) const {
  ensure_synced();
  out->node = node;
  out->capacity_gbps = cluster_.node(node).config().mem_bw_gbps;
  out->total_gbps = 0.0;
  out->jobs.clear();
  const auto& report = node_reports_[node];
  for (const auto& jc : report.jobs) {
    const JobTable::Slot* slot = jobs_.find(jc.job);
    if (slot == nullptr || !slot->running()) {
      continue;  // finished since the last recompute
    }
    telemetry::JobBandwidth jb;
    jb.job = jc.job;
    jb.is_gpu_job = slot->record.spec.is_gpu_job();
    jb.gbps = jc.achieved_bw_gbps;
    // Totalled from the surviving rows, not report.total_demand_gbps: a job
    // that finished since the last recompute must not haunt the probe.
    out->total_gbps += jb.gbps;
    out->jobs.push_back(jb);
  }
}

double ClusterEngine::pressure(cluster::NodeId node) const {
  ensure_synced();
  return node_pressure_[node];
}

void ClusterEngine::pressure_screen(size_t node_count,
                                    std::vector<cluster::NodeId>* ids,
                                    std::vector<double>* out) const {
  ensure_synced();
  ids->clear();
  out->clear();
  hot_nodes_.for_each([&](cluster::NodeId id) {
    if (id < node_count) {
      ids->push_back(id);
      out->push_back(node_pressure_[id]);
    }
  });
}

double ClusterEngine::gpu_utilization(cluster::JobId job) const {
  ensure_synced();
  const JobTable::Slot* slot = jobs_.find(job);
  if (slot == nullptr || !slot->running() ||
      !slot->record.spec.is_gpu_job()) {
    return -1.0;
  }
  double util = running(*slot).gpu_util;
  if (config_.util_noise_stddev > 0.0) {
    // Jittered probe: what a real 90 s utilization sample looks like.
    util *= 1.0 + noise_rng_.normal(0.0, config_.util_noise_stddev);
  }
  return std::clamp(util, 0.0, 1.0);
}

double ClusterEngine::expected_gpu_utilization(cluster::JobId job) const {
  ensure_synced();
  const JobTable::Slot* slot = jobs_.find(job);
  if (slot == nullptr || !slot->running() ||
      !slot->record.spec.is_gpu_job()) {
    return -1.0;
  }
  const RunningJob& r = running(*slot);
  double util = 1.0;
  for (const auto& [node, st] : r.nodes) {
    util = std::min(util, perf_.gpu_utilization(r.spec->model,
                                                r.spec->train_config,
                                                std::max(1, st.cpus)));
  }
  return util;
}

// ----------------------------------------------------------------- metrics

void ClusterEngine::sample_metrics() {
  flush_dirty_nodes();
  const double t = sim_.now();
  series_.gpu_active->add(t, cluster_.gpu_active_rate());
  series_.cpu_active->add(t, cluster_.cpu_active_rate());

  // Fragmentation (Sec. VI-C): idle GPUs that cannot serve even the most
  // easily placed pending GPU job. The paper's headline numbers are
  // *case 1* — the node has the GPUs but lacks CPU cores; *case 2* — the
  // node lacks enough adjacent GPUs — is tracked separately (the multi-array
  // scheduler is the paper's fix for it). Zero when nothing is pending: an
  // idle GPU without demand is spare capacity, not waste.
  double frag_cpu = 0.0;
  double frag_adjacency = 0.0;
  if (auto demand = scheduler_->min_pending_gpu_demand()) {
    // Adjacency is a pure sum over the (free_gpus < demand) buckets; failed
    // nodes sit at (0, 0) and count nowhere. The starved side only needs
    // nodes with free_gpus >= demand.gpus AND free_cpus < demand.cpus —
    // reclaimable_cpus() is a sum of core counts (never negative), so a node
    // with free_cpus >= demand.cpus can never satisfy the starvation
    // predicate — and that candidate set is exactly the eviction-candidate
    // bucket walk.
    const auto& index = cluster_.placement_index();
    const long long adjacency =
        index.free_gpu_sum_below(demand->gpus_per_node);
    long long cpu_starved = 0;
    frag_scratch_.clear();
    index.collect_eviction_candidates(demand->gpus_per_node,
                                      demand->cpus_per_node, {},
                                      &frag_scratch_);
    for (const cluster::NodeId id : frag_scratch_) {
      const cluster::Node& node = cluster_.node(id);
      if (node.free_cpus() + scheduler_->reclaimable_cpus(id) <
          demand->cpus_per_node) {
        cpu_starved += node.free_gpus();
      }
    }
    frag_cpu = static_cast<double>(cpu_starved) / cluster_.total_gpus();
    frag_adjacency = static_cast<double>(adjacency) / cluster_.total_gpus();
  }
  series_.gpu_frag->add(t, frag_cpu);
  series_.gpu_frag_case2->add(t, frag_adjacency);
  series_.pending_jobs->add(
      t, static_cast<double>(scheduler_->pending_jobs()));
  series_.pending_gpu_jobs->add(
      t, static_cast<double>(scheduler_->pending_gpu_jobs()));

  // GPU utilization averaged over *active* GPUs (the paper's definition);
  // CPU utilization over active cores. The flush above brought every
  // rate-update term current, so the tick only folds them, in job-id and
  // leg order.
  const TickTerms::Sums sums = tick_terms_.fold();
  series_.gpu_util_active->add(
      t, sums.gpus > 0 ? sums.gpu_weighted / sums.gpus : 0.0);
  series_.cpu_util_active->add(
      t, sums.cores > 0 ? sums.busy_cores / sums.cores : 0.0);

  // Unoccupied nodes hold an empty report with mem_pressure exactly +0.0;
  // adding +0.0 never changes a non-negative sum's bits, so summing the
  // occupied nodes in ascending id order matches the old full-vector scan.
  double pressure = 0.0;
  occupied_nodes_.for_each(
      [&](cluster::NodeId id) { pressure += node_mem_terms_[id]; });
  series_.mem_pressure->add(
      t, pressure / static_cast<double>(node_reports_.size()));

  // Hot-path accounting, republished as gauges so reports (and the micro
  // bench) can read cache effectiveness without new plumbing. The slots
  // resolve on the first tick and then every later tick is a plain store.
  if (gauges_.perf_cache_hits == nullptr) {
    gauges_.perf_cache_hits = &metrics_.gauge_ref("perf_cache_hits");
    gauges_.perf_cache_misses = &metrics_.gauge_ref("perf_cache_misses");
    gauges_.node_recomputes = &metrics_.gauge_ref("engine_node_recomputes");
    gauges_.rate_updates = &metrics_.gauge_ref("engine_rate_updates");
    gauges_.reschedules_skipped =
        &metrics_.gauge_ref("engine_reschedules_skipped");
    gauges_.dirty_flushes = &metrics_.gauge_ref("engine_dirty_flushes");
    gauges_.event_pool_live = &metrics_.gauge_ref("event_pool_live");
    gauges_.event_pool_slots_in_use =
        &metrics_.gauge_ref("event_pool_slots_in_use");
    gauges_.event_pool_slots_free =
        &metrics_.gauge_ref("event_pool_slots_free");
    gauges_.event_pool_chunks = &metrics_.gauge_ref("event_pool_chunks");
    gauges_.placement_index_probes =
        &metrics_.gauge_ref("placement_index_probes");
    gauges_.placement_index_rebuilds =
        &metrics_.gauge_ref("placement_index_rebuilds");
    gauges_.event_queue_depth = &metrics_.gauge_ref("event_queue_depth");
  }
  const perfmodel::TrainPerf::CacheStats& cs = perf_.cache_stats();
  *gauges_.perf_cache_hits = static_cast<double>(cs.hits);
  *gauges_.perf_cache_misses = static_cast<double>(cs.misses);
  *gauges_.node_recomputes = static_cast<double>(stats_.node_recomputes);
  *gauges_.rate_updates = static_cast<double>(stats_.rate_updates);
  *gauges_.reschedules_skipped =
      static_cast<double>(stats_.reschedules_skipped);
  *gauges_.dirty_flushes = static_cast<double>(stats_.dirty_flushes);
  // Event control-slot pool occupancy (steady-state allocs/event proxy:
  // chunks stops growing once the pool covers the live-event high-water
  // mark, after which push() allocates nothing).
  const simcore::EventPool::Stats ps = sim_.event_pool_stats();
  *gauges_.event_pool_live = static_cast<double>(ps.live_events);
  *gauges_.event_pool_slots_in_use = static_cast<double>(ps.slots_in_use);
  *gauges_.event_pool_slots_free = static_cast<double>(ps.slots_free);
  *gauges_.event_pool_chunks = static_cast<double>(ps.chunks);
  // Placement-index query volume and the queue's live depth: together they
  // say whether a slow shard is scheduler-bound (probes per event high) or
  // event-bound (deep queue).
  const cluster::PlacementIndex::Stats& is =
      cluster_.placement_index().stats();
  *gauges_.placement_index_probes = static_cast<double>(is.probes);
  *gauges_.placement_index_rebuilds = static_cast<double>(is.rebuilds);
  *gauges_.event_queue_depth = static_cast<double>(ps.live_events);
}

}  // namespace coda::sim
