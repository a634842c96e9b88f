#include "coda/eliminator.h"

#include <algorithm>

#include "state/serde.h"
#include "util/assert.h"
#include "util/logging.h"

namespace coda::core {

void ContentionEliminator::save_state(state::Writer* w) const {
  w->line("elim_stats", fields(stats_));
  w->line("elim_throttled", throttled_.size());
  for (const auto& [job, rec] : throttled_) {
    w->line("et", job, fields(rec));
  }
}

void ContentionEliminator::load_state(state::Reader* r) {
  r->expect("elim_stats");
  r->read(fields(stats_));
  r->expect("elim_throttled");
  const uint64_t n = r->u64();
  throttled_.clear();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("et");
    cluster::JobId job = 0;
    ThrottleRecord rec;
    if (r->read(job, fields(rec)) &&
        rec.node >= env_->cluster->node_count()) {
      r->fail("throttle record on an unknown node");
      break;
    }
    throttled_[job] = rec;
  }
}

void ContentionEliminator::check_all(
    const std::function<double(cluster::JobId)>& expected_util) {
  if (!config_.enabled) {
    return;
  }
  ++stats_.checks;
  const auto& nodes = env_->cluster->nodes();
  // One batched MBM read screens the whole pass: ascending (id, pressure)
  // rows covering every node at or above the floor this eliminator
  // registered, its bw_threshold. check_node is a no-op on any other node,
  // and release_node can only act on a node holding one of this
  // eliminator's throttle records, so with release_when_calm on those nodes
  // join the rows. Visiting the rows therefore makes exactly the decisions
  // a one-probe-per-node loop over the whole cluster makes, at O(hot nodes
  // + throttled jobs) instead of O(cluster) per tick.
  //
  // Acting on a node — a cap, a resize — may shift pressure readings later
  // in the same pass, so after the first action the pass falls back to live
  // per-node probes. A mutation only changes the pressure of the node it
  // acts on (caps and resizes move no job between nodes), so a node the
  // rows left out still could not trigger a check or a release.
  env_->bandwidth->pressure_screen(nodes.size(), &screen_ids_,
                                   &pressure_scratch_);
  if (config_.release_when_calm) {
    // Nothing has mutated yet this pass, so a probe now reads what a
    // whole-cluster screen would have listed for the node.
    for (const auto& [job, rec] : throttled_) {
      const auto it = std::lower_bound(screen_ids_.begin(), screen_ids_.end(),
                                       rec.node);
      if (it == screen_ids_.end() || *it != rec.node) {
        pressure_scratch_.insert(
            pressure_scratch_.begin() + (it - screen_ids_.begin()),
            env_->bandwidth->pressure(rec.node));
        screen_ids_.insert(it, rec.node);
      }
    }
  }
  bool stale = false;
  size_t i = 0;
  // Fast path while nothing has mutated: the screen value decides both
  // per-node branches outright — check_node is a no-op below bw_threshold,
  // and release_node is a no-op at/above release_threshold or with nothing
  // throttled — so rows failing both predicates are skipped without a
  // call. Only sub-threshold sample_into scratch writes are elided.
  // throttled_ cannot change while !stale (every record mutation flips
  // stale), so hoisting the emptiness test out of the loop is safe.
  const bool may_release = config_.release_when_calm && !throttled_.empty();
  for (; i < screen_ids_.size() && !stale; ++i) {
    const double screened = pressure_scratch_[i];
    const bool check_candidate = screened >= config_.bw_threshold;
    const bool release_candidate =
        may_release && screened < config_.release_threshold;
    if (!check_candidate && !release_candidate) {
      continue;
    }
    const cluster::Node& node = nodes[screen_ids_[i]];
    if (check_node(node, expected_util, screened)) {
      stale = true;
    }
    if (config_.release_when_calm) {
      const double sp =
          stale ? env_->bandwidth->pressure(node.id()) : screened;
      if (release_node(node, sp)) {
        stale = true;
      }
    }
  }
  // A node acted: pressure readings may have shifted, so the rest of the
  // pass falls back to live probes on the remaining screened nodes.
  for (; i < screen_ids_.size(); ++i) {
    const cluster::Node& node = nodes[screen_ids_[i]];
    if (check_node(node, expected_util, env_->bandwidth->pressure(node.id()))) {
      stale = true;
    }
    if (config_.release_when_calm &&
        release_node(node, env_->bandwidth->pressure(node.id()))) {
      stale = true;
    }
  }
}

void ContentionEliminator::forget_job(cluster::JobId job) {
  auto it = throttled_.find(job);
  if (it == throttled_.end()) {
    return;
  }
  // Never let an MBA cap outlive its throttle record: when the job is
  // aborted by the scheduler mid-throttle, a surviving cap would shadow the
  // job's next run on that node. The engine's own stop paths clear a job's
  // caps themselves, so only clear one that is still live (avoids spurious
  // clear events on the ordinary finish path).
  if (it->second.via_mba && env_->bw_cap && env_->clear_bw_cap &&
      env_->bw_cap(it->second.node, job) >= 0.0) {
    env_->clear_bw_cap(it->second.node, job);
  }
  throttled_.erase(it);
}

bool ContentionEliminator::release_node(const cluster::Node& node,
                                        double screened_pressure) {
  if (screened_pressure >= config_.release_threshold) {
    return false;
  }
  env_->bandwidth->sample_into(node.id(), &sample_scratch_);
  const telemetry::NodeBandwidthSample& sample = sample_scratch_;
  // Anti-oscillation guard: only release a throttle when the *projected*
  // pressure — after the job roughly doubles its traffic back — still sits
  // below the trigger threshold. Without this, release/throttle would cycle
  // every check period (likely why the paper keeps throttles permanent).
  double projected = sample.pressure();
  bool mutated = false;
  const auto achieved_of = [&sample](cluster::JobId job) {
    for (const auto& jb : sample.jobs) {
      if (jb.job == job) {
        return jb.gbps;
      }
    }
    return 0.0;
  };
  for (auto it = throttled_.begin(); it != throttled_.end();) {
    if (it->second.node != node.id()) {
      ++it;
      continue;
    }
    const cluster::JobId job = it->first;
    double restored_delta = achieved_of(job) / node.config().mem_bw_gbps;
    if (!it->second.via_mba) {
      // The achieved bandwidth was measured on *halved* cores; restoring
      // original_cores scales the job's traffic back up proportionally.
      // Without this the projection undercounts and releases too eagerly.
      const auto alloc = node.allocation_of(job);
      if (alloc.ok() && alloc->cpus > 0 &&
          it->second.original_cores > alloc->cpus) {
        restored_delta *=
            static_cast<double>(it->second.original_cores) / alloc->cpus;
      }
    }
    if (projected + restored_delta >= config_.bw_threshold) {
      ++it;
      continue;
    }
    if (it->second.via_mba) {
      env_->clear_bw_cap(node.id(), job);
      projected += restored_delta;
      ++stats_.releases;
      mutated = true;
      it = throttled_.erase(it);
      continue;
    }
    // Core-halving path: restore the original cores if the node has room.
    const auto resize =
        env_->resize_job(job, node.id(), it->second.original_cores);
    if (resize.ok()) {
      if (on_cpu_resize_) {
        on_cpu_resize_(job, node.id(), it->second.original_cores);
      }
      projected += restored_delta;
      ++stats_.releases;
      mutated = true;
      it = throttled_.erase(it);
    } else {
      ++it;  // no room yet; retry on a later pass
    }
  }
  return mutated;
}

bool ContentionEliminator::check_node(
    const cluster::Node& node,
    const std::function<double(cluster::JobId)>& expected_util,
    double screened_pressure) {
  // Cheap screen first: most nodes sit below the threshold on most ticks,
  // and the full per-job sample is only needed once one crosses it.
  if (screened_pressure < config_.bw_threshold) {
    return false;
  }
  env_->bandwidth->sample_into(node.id(), &sample_scratch_);
  const telemetry::NodeBandwidthSample& sample = sample_scratch_;

  // Threshold crossed — but only act when a DNN training job actually
  // suffers (Sec. V-D: threshold reached "and the GPU utilization of the
  // DNN training jobs on the node drops").
  bool gpu_job_suffering = false;
  for (const auto& jb : sample.jobs) {
    if (!jb.is_gpu_job) {
      continue;
    }
    const double actual = env_->gpu_util->gpu_utilization(jb.job);
    const double expected = expected_util(jb.job);
    if (actual >= 0.0 && expected > 0.0 &&
        actual < expected * (1.0 - config_.util_drop_tolerance)) {
      gpu_job_suffering = true;
      break;
    }
  }
  if (!gpu_job_suffering) {
    return false;
  }
  ++stats_.nodes_over_threshold;

  // Throttle CPU jobs, biggest bandwidth consumer first. User-facing
  // inference jobs outrank DNN training (Sec. V-A) and are never touched.
  std::vector<telemetry::JobBandwidth> cpu_jobs;
  for (const auto& jb : sample.jobs) {
    if (!jb.is_gpu_job && jb.gbps > 0.0 &&
        (!is_user_facing_ || !is_user_facing_(jb.job))) {
      cpu_jobs.push_back(jb);
    }
  }
  std::sort(cpu_jobs.begin(), cpu_jobs.end(),
            [](const telemetry::JobBandwidth& a,
               const telemetry::JobBandwidth& b) {
              if (a.gbps != b.gbps) {
                return a.gbps > b.gbps;
              }
              return a.job < b.job;
            });

  double excess = sample.total_gbps -
                  config_.bw_threshold * sample.capacity_gbps;
  bool mutated = false;
  for (const auto& jb : cpu_jobs) {
    if (excess <= 0.0) {
      break;
    }
    const double cap = jb.gbps * config_.mba_throttle_factor;
    const auto status = env_->set_bw_cap(node.id(), jb.job, cap);
    if (status.ok()) {
      ++stats_.mba_throttles;
      mutated = true;
      // emplace keeps an existing same-node record (re-tightening a cap is
      // still one throttle), but a record pointing at a *different* node is
      // stale state from a previous life of the job — replace it.
      auto [t_it, inserted] =
          throttled_.emplace(jb.job, ThrottleRecord{node.id(), true, 0});
      if (!inserted && t_it->second.node != node.id()) {
        t_it->second = ThrottleRecord{node.id(), true, 0};
      }
      excess -= jb.gbps - cap;
      CODA_LOG_DEBUG("eliminator: MBA cap %.1f GB/s on job %llu node %u",
                     cap, static_cast<unsigned long long>(jb.job), node.id());
      continue;
    }
    // No MBA on this node: halve the CPU job's cores instead (Sec. V-D).
    const auto alloc = node.allocation_of(jb.job);
    if (!alloc.ok() || alloc->cpus <= 1) {
      continue;
    }
    const int new_cores = std::max(1, alloc->cpus / 2);
    const auto resize = env_->resize_job(jb.job, node.id(), new_cores);
    if (resize.ok()) {
      ++stats_.core_halvings;
      mutated = true;
      // Remember the first (largest) allocation for a later release; as
      // above, a record left over from another node must not survive.
      auto [t_it, inserted] = throttled_.emplace(
          jb.job, ThrottleRecord{node.id(), false, alloc->cpus});
      if (!inserted && t_it->second.node != node.id()) {
        t_it->second = ThrottleRecord{node.id(), false, alloc->cpus};
      }
      if (on_cpu_resize_) {
        on_cpu_resize_(jb.job, node.id(), new_cores);
      }
      // Fewer cores move proportionally less data.
      excess -= jb.gbps * (1.0 - static_cast<double>(new_cores) /
                                     alloc->cpus);
      CODA_LOG_DEBUG("eliminator: halved job %llu to %d cores on node %u",
                     static_cast<unsigned long long>(jb.job), new_cores,
                     node.id());
    }
  }
  return mutated;
}

}  // namespace coda::core
