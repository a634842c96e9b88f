// Snapshot (de)serialization for ClusterEngine (see engine.h, "snapshot
// support"). Everything mutable is serialized — no recompute-on-load: the
// per-node eval caches, contention factors and reports restore to the exact
// doubles the live engine held, so the first post-restore event observes
// bit-identical state. Node allocations, MBA caps, metrics and the event
// log restore by replaying their own mutation APIs (allocate/set_cap/set/
// add/record), which fold deterministically in serialized order. The
// telemetry caches (node pressures, the hot-node set, metrics-tick terms)
// are pure functions of that state and are rebuilt, not serialized.
//
// Pending simulator events are NOT handled here: save_state captures a
// quiescent engine (between dispatches, dirty nodes flushed) and the
// snapshot's re-arm manifest re-posts events through the rearm_* helpers.
#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "state/serde.h"
#include "util/assert.h"

namespace coda::sim {

void ClusterEngine::save_state(state::Writer* w) const {
  // Capture at a quiescent point: derived state (rates, reports) must be in
  // sync with the allocations being serialized.
  ensure_synced();

  const auto rng_state = noise_rng_.state();
  w->line("rng", rng_state[0], rng_state[1], rng_state[2], rng_state[3]);
  w->line("counts", finished_count_, abandoned_count_, submitted_count_,
          node_failures_);
  w->line("stats", stats_.node_recomputes, stats_.rate_updates,
          stats_.reschedules, stats_.reschedules_skipped,
          stats_.dirty_flushes);

  w->line("records", records_.size());
  for (const auto& [id, rec] : records_) {
    w->line("rec", id, rec.submit_time, rec.first_start_time, rec.finish_time,
            rec.queue_time_total, rec.preempt_count, rec.final_cpus,
            rec.completed, rec.evict_count, rec.restart_count, rec.abandoned,
            rec.busy_core_s, rec.busy_gpu_s, rec.wasted_core_s,
            rec.wasted_gpu_s);
  }

  w->line("pending", pending_since_.size());
  for (const auto& [id, since] : pending_since_) {
    w->line("pend", id, since);
  }
  w->line("remaining", remaining_work_.size());
  for (const auto& [id, rem] : remaining_work_) {
    w->line("rem", id, rem);
  }

  w->line("nodes", cluster_.node_count());
  for (size_t n = 0; n < cluster_.node_count(); ++n) {
    const cluster::Node& node = cluster_.node(static_cast<cluster::NodeId>(n));
    w->line("node", n, node.failed(), node.allocations().size());
    for (const auto& [job, alloc] : node.allocations()) {
      w->line("alloc", job, alloc.cpus, alloc.gpus);
    }
  }

  w->line("running", running_.size());
  for (const auto& [id, job] : running_) {
    w->line("run", id, job.remaining, job.rate, job.last_update, job.gpu_util,
            job.ckpt_remaining, job.time_since_ckpt, job.busy_core_s,
            job.busy_gpu_s, job.ckpt_busy_core_s, job.ckpt_busy_gpu_s,
            job.placement.nodes.size());
    // Placement order is semantic (nodes.front() names the lead node) —
    // serialized verbatim, separately from the sorted per-node state map.
    for (const auto& np : job.placement.nodes) {
      w->line("place", np.node, np.cpus, np.gpus);
    }
    for (const auto& [node, st] : job.nodes) {
      const perfmodel::ResourceFootprint& fp = st.footprint;
      w->line("pstate", node, st.cpus, fp.is_gpu_job, fp.mem_bw_gbps,
              fp.mem_bw_cap_gbps, fp.pcie_gbps, fp.llc_mb,
              fp.bw_latency_sensitivity, fp.bw_share_dependence,
              fp.llc_sensitivity, fp.bw_bound_fraction,
              st.factors.prep_inflation, st.factors.gpu_inflation,
              st.cpu_rate_factor, st.achieved_bw, st.eval_cpus,
              st.eval_prep_bits, st.eval_gpu_bits, st.eval_iter, st.eval_util,
              st.eval_prep);
    }
  }

  // Resident lists in their live (insertion) order: recompute_node walks
  // them in order, and report rows zip against them.
  for (size_t n = 0; n < jobs_on_node_.size(); ++n) {
    w->line("res", n, jobs_on_node_[n].size());
    for (const Resident& r : jobs_on_node_[n]) {
      w->line("rid", r.id);
    }
  }

  for (size_t n = 0; n < node_reports_.size(); ++n) {
    const perfmodel::NodeContentionReport& rep = node_reports_[n];
    w->line("rep", n, rep.total_demand_gbps, rep.mem_pressure,
            rep.llc_pressure, rep.pcie_total_gbps, rep.jobs.size());
    for (const perfmodel::JobContention& jc : rep.jobs) {
      w->line("rj", jc.job, jc.achieved_bw_gbps, jc.factors.prep_inflation,
              jc.factors.gpu_inflation, jc.cpu_rate_factor);
    }
  }

  w->line("mba", mba_.caps().size());
  for (const auto& [key, cap] : mba_.caps()) {
    w->line("cap", key.first, key.second, cap);
  }

  w->line("counters", metrics_.counters().size());
  for (const auto& [name, value] : metrics_.counters()) {
    w->line("ctr", name, value);
  }
  w->line("series", metrics_.all_series().size());
  for (const auto& [name, series] : metrics_.all_series()) {
    w->line("ser", name, series.size());
    for (const util::TimePoint& p : series.points()) {
      w->line("pt", p.t, p.value);
    }
  }

  w->line("eventlog", event_log_.size());
  for (const Event& e : event_log_.events()) {
    w->line("ev", e.t, static_cast<int>(e.kind), e.job, e.node, e.value);
  }
}

util::Status ClusterEngine::load_state(
    state::Reader* r,
    const std::map<cluster::JobId, workload::JobSpec>& specs) {
  CODA_ASSERT_MSG(records_.empty() && running_.empty(),
                  "load_state requires a restore-mode engine with no trace");

  r->expect("rng");
  std::array<uint64_t, 4> rng_state;
  for (uint64_t& word : rng_state) {
    word = r->u64();
  }
  noise_rng_.set_state(rng_state);

  r->expect("counts");
  finished_count_ = r->u64();
  abandoned_count_ = r->u64();
  submitted_count_ = r->u64();
  node_failures_ = r->i32();
  r->expect("stats");
  stats_.node_recomputes = r->u64();
  stats_.rate_updates = r->u64();
  stats_.reschedules = r->u64();
  stats_.reschedules_skipped = r->u64();
  stats_.dirty_flushes = r->u64();

  r->expect("records");
  uint64_t n = r->u64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("rec");
    const cluster::JobId id = r->u64();
    auto spec_it = specs.find(id);
    if (spec_it == specs.end()) {
      r->fail("engine record references unknown job " + std::to_string(id));
      break;
    }
    JobRecord rec;
    rec.spec = spec_it->second;
    rec.submit_time = r->f64();
    rec.first_start_time = r->f64();
    rec.finish_time = r->f64();
    rec.queue_time_total = r->f64();
    rec.preempt_count = r->i32();
    rec.final_cpus = r->i32();
    rec.completed = r->b();
    rec.evict_count = r->i32();
    rec.restart_count = r->i32();
    rec.abandoned = r->b();
    rec.busy_core_s = r->f64();
    rec.busy_gpu_s = r->f64();
    rec.wasted_core_s = r->f64();
    rec.wasted_gpu_s = r->f64();
    records_[id] = std::move(rec);
  }

  r->expect("pending");
  n = r->u64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("pend");
    const cluster::JobId id = r->u64();
    pending_since_[id] = r->f64();
  }
  r->expect("remaining");
  n = r->u64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("rem");
    const cluster::JobId id = r->u64();
    remaining_work_[id] = r->f64();
  }

  r->expect("nodes");
  n = r->u64();
  if (r->ok() && n != cluster_.node_count()) {
    r->fail("snapshot node count does not match the engine's cluster");
  }
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("node");
    if (r->u64() != i && r->ok()) {
      r->fail("node rows out of order");
      break;
    }
    const bool failed = r->b();
    const uint64_t allocs = r->u64();
    cluster::Node& node = cluster_.node(static_cast<cluster::NodeId>(i));
    for (uint64_t j = 0; j < allocs && r->ok(); ++j) {
      r->expect("alloc");
      const cluster::JobId job = r->u64();
      const int cpus = r->i32();
      const int gpus = r->i32();
      if (!r->ok()) {
        break;
      }
      if (auto status = node.allocate(job, cpus, gpus); !status.ok()) {
        r->fail("allocation replay failed: " + status.error().message);
        break;
      }
    }
    node.set_failed(failed);
  }

  r->expect("running");
  n = r->u64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("run");
    const cluster::JobId id = r->u64();
    auto rec_it = records_.find(id);
    if (rec_it == records_.end()) {
      r->fail("running job without a record: " + std::to_string(id));
      break;
    }
    RunningJob job;
    job.id = id;
    job.spec = &rec_it->second.spec;  // stable: map node address
    job.remaining = r->f64();
    job.rate = r->f64();
    job.last_update = r->f64();
    job.gpu_util = r->f64();
    job.ckpt_remaining = r->f64();
    job.time_since_ckpt = r->f64();
    job.busy_core_s = r->f64();
    job.busy_gpu_s = r->f64();
    job.ckpt_busy_core_s = r->f64();
    job.ckpt_busy_gpu_s = r->f64();
    const uint64_t np = r->u64();
    if (r->ok() && np == 0) {
      r->fail("running job without a placement: " + std::to_string(id));
      break;
    }
    job.placement.nodes.reserve(np);
    job.nodes.reserve(np);
    for (uint64_t j = 0; j < np && r->ok(); ++j) {
      r->expect("place");
      sched::NodePlacement p;
      p.node = static_cast<cluster::NodeId>(r->u64());
      p.cpus = r->i32();
      p.gpus = r->i32();
      job.placement.nodes.push_back(p);
    }
    for (uint64_t j = 0; j < np && r->ok(); ++j) {
      r->expect("pstate");
      const cluster::NodeId node = static_cast<cluster::NodeId>(r->u64());
      PerNodeState st;
      st.cpus = r->i32();
      perfmodel::ResourceFootprint& fp = st.footprint;
      fp.job = id;
      fp.is_gpu_job = r->b();
      fp.mem_bw_gbps = r->f64();
      fp.mem_bw_cap_gbps = r->f64();
      fp.pcie_gbps = r->f64();
      fp.llc_mb = r->f64();
      fp.bw_latency_sensitivity = r->f64();
      fp.bw_share_dependence = r->f64();
      fp.llc_sensitivity = r->f64();
      fp.bw_bound_fraction = r->f64();
      st.factors.prep_inflation = r->f64();
      st.factors.gpu_inflation = r->f64();
      st.cpu_rate_factor = r->f64();
      st.achieved_bw = r->f64();
      st.eval_cpus = r->i32();
      st.eval_prep_bits = r->u64();
      st.eval_gpu_bits = r->u64();
      st.eval_iter = r->f64();
      st.eval_util = r->f64();
      st.eval_prep = r->f64();
      job.nodes.emplace_back(node, st);
    }
    // pstate rows were serialized in ascending node order, but sort anyway:
    // the flat vector's order is an invariant, not a serialization accident.
    std::sort(job.nodes.begin(), job.nodes.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // finish_event stays empty here; the snapshot manifest re-arms it via
    // rearm_finish at the exact serialized firing time.
    running_.emplace(id, std::move(job));
  }

  for (size_t node = 0; node < jobs_on_node_.size() && r->ok(); ++node) {
    r->expect("res");
    if (r->u64() != node && r->ok()) {
      r->fail("resident rows out of order");
      break;
    }
    const uint64_t k = r->u64();
    for (uint64_t j = 0; j < k && r->ok(); ++j) {
      r->expect("rid");
      const cluster::JobId id = r->u64();
      auto run_it = running_.find(id);
      if (run_it == running_.end()) {
        r->fail("resident references a non-running job");
        break;
      }
      PerNodeState* st = node_state(run_it->second,
                                    static_cast<cluster::NodeId>(node));
      if (st == nullptr) {
        r->fail("resident references a node the job does not occupy");
        break;
      }
      jobs_on_node_[node].push_back(Resident{id, &run_it->second, st});
    }
    if (!jobs_on_node_[node].empty()) {
      occupied_nodes_.insert(static_cast<cluster::NodeId>(node));
    }
  }

  for (size_t node = 0; node < node_reports_.size() && r->ok(); ++node) {
    r->expect("rep");
    if (r->u64() != node && r->ok()) {
      r->fail("report rows out of order");
      break;
    }
    perfmodel::NodeContentionReport& rep = node_reports_[node];
    rep.total_demand_gbps = r->f64();
    rep.mem_pressure = r->f64();
    rep.llc_pressure = r->f64();
    rep.pcie_total_gbps = r->f64();
    const uint64_t k = r->u64();
    rep.jobs.clear();
    for (uint64_t j = 0; j < k && r->ok(); ++j) {
      r->expect("rj");
      perfmodel::JobContention jc;
      jc.job = r->u64();
      jc.achieved_bw_gbps = r->f64();
      jc.factors.prep_inflation = r->f64();
      jc.factors.gpu_inflation = r->f64();
      jc.cpu_rate_factor = r->f64();
      rep.jobs.push_back(jc);
    }
  }

  // Derived caches are not serialized: rebuild them from what just loaded,
  // with the same expressions the live engine stored them with.
  if (r->ok()) {
    for (auto& [id, job] : running_) {
      store_tick_terms(job);
    }
    for (size_t node = 0; node < node_reports_.size(); ++node) {
      cache_node_telemetry(static_cast<cluster::NodeId>(node));
    }
  }

  r->expect("mba");
  n = r->u64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("cap");
    const cluster::NodeId node = static_cast<cluster::NodeId>(r->u64());
    const cluster::JobId job = r->u64();
    const double cap = r->f64();
    if (!r->ok()) {
      break;
    }
    if (auto status = mba_.set_cap(node, job, cap); !status.ok()) {
      r->fail("MBA cap replay failed: " + status.error().message);
      break;
    }
  }

  r->expect("counters");
  n = r->u64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("ctr");
    const std::string name(r->token());
    metrics_.set(name, r->f64());
  }
  r->expect("series");
  n = r->u64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("ser");
    const std::string name(r->token());
    util::TimeSeries& series = metrics_.series_mut(name);
    const uint64_t k = r->u64();
    for (uint64_t j = 0; j < k && r->ok(); ++j) {
      r->expect("pt");
      const double t = r->f64();
      series.add(t, r->f64());
    }
  }

  r->expect("eventlog");
  n = r->u64();
  if (r->ok() && n > 0 && !event_log_.enabled()) {
    r->fail("snapshot carries an event log but record_events is off");
  }
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("ev");
    const double t = r->f64();
    const EventKind kind = static_cast<EventKind>(r->i32());
    const cluster::JobId job = r->u64();
    const int node = r->i32();
    event_log_.record(t, kind, job, node, r->f64());
  }

  return r->status();
}

}  // namespace coda::sim
