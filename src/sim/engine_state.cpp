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
// snapshot's manifest re-posts each event's tag through repost().
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

  w->line("rng", noise_rng_.state());
  w->line("counts", counts(*this));
  w->line("stats", fields(stats_));

  // One walk in id order writes the records and collects the few pending,
  // preserved-work and running slots whose rows follow, in the same order.
  std::vector<const JobTable::Slot*> pending;
  std::vector<const JobTable::Slot*> remaining;
  std::vector<const JobTable::Slot*> running_slots;
  w->line("records", jobs_.size());
  for (uint32_t s : jobs_.by_id()) {
    const JobTable::Slot& slot = jobs_.slot(s);
    w->line("rec", slot.id(), fields(slot.record));
    if (slot.pending()) {
      pending.push_back(&slot);
    }
    if (slot.has_remaining()) {
      remaining.push_back(&slot);
    }
    if (slot.running()) {
      running_slots.push_back(&slot);
    }
  }

  w->line("pending", pending.size());
  for (const JobTable::Slot* slot : pending) {
    w->line("pend", slot->id(), slot->pending_since());
  }
  w->line("remaining", remaining.size());
  for (const JobTable::Slot* slot : remaining) {
    w->line("rem", slot->id(), slot->remaining());
  }

  w->line("nodes", cluster_.node_count());
  for (size_t n = 0; n < cluster_.node_count(); ++n) {
    const cluster::Node& node = cluster_.node(static_cast<cluster::NodeId>(n));
    w->line("node", n, node.failed(), node.allocations().size());
    for (const cluster::Allocation& alloc : node.allocations()) {
      w->line("alloc", alloc.job, alloc.cpus, alloc.gpus);
    }
  }

  w->line("running", running_slots.size());
  for (const JobTable::Slot* slot : running_slots) {
    const RunningJob& job = running(*slot);
    w->line("run", slot->id(), fields(job), job.placement.nodes.size());
    // Placement order is semantic (nodes.front() names the lead node) —
    // serialized verbatim, separately from the sorted per-node state map.
    for (const auto& np : job.placement.nodes) {
      w->line("place", fields(np));
    }
    for (const auto& [node, st] : job.nodes) {
      w->line("pstate", node, fields(st));
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
    w->line("rep", n, fields(rep), rep.jobs.size());
    for (const perfmodel::JobContention& jc : rep.jobs) {
      w->line("rj", fields(jc));
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
    w->line("ev", fields(e));
  }
}

util::Status ClusterEngine::load_state(
    state::Reader* r,
    const std::map<cluster::JobId, workload::JobSpec>& specs) {
  CODA_ASSERT_MSG(jobs_.size() == 0,
                  "load_state requires a restore-mode engine with no trace");

  r->expect("rng");
  std::array<uint64_t, 4> rng_state{};
  r->read(rng_state);
  noise_rng_.set_state(rng_state);

  r->expect("counts");
  r->read(counts(*this));
  r->expect("stats");
  r->read(fields(stats_));

  r->expect("records");
  uint64_t n = r->u64();
  // Every rec row names a distinct job of `specs`, so no more can load.
  jobs_.reserve(std::min<uint64_t>(n, specs.size()));
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("rec");
    const cluster::JobId id = r->u64();
    const workload::JobSpec* spec = sched::spec_of(r, specs, id);
    if (spec == nullptr) {
      break;
    }
    JobTable::Slot* slot = jobs_.add(*spec);
    if (slot == nullptr) {
      r->fail("job record listed twice: " + std::to_string(id));
      break;
    }
    r->read(fields(slot->record));
  }

  // A pending job and one with preserved work must be jobs the engine
  // holds a record for: starting either reads the record.
  const auto recorded = [&](const char* what) -> JobTable::Slot* {
    const cluster::JobId id = r->u64();
    JobTable::Slot* slot = jobs_.find(id);
    if (slot == nullptr && r->ok()) {
      r->fail(std::string(what) + " without a record: " + std::to_string(id));
    }
    return slot;
  };
  r->expect("pending");
  n = r->u64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("pend");
    if (JobTable::Slot* slot = recorded("pending job")) {
      jobs_.set_pending(*slot, r->f64());
    }
  }
  r->expect("remaining");
  n = r->u64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("rem");
    if (JobTable::Slot* slot = recorded("preserved work")) {
      jobs_.set_remaining(*slot, r->f64());
    }
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
      cluster::JobId job = 0;
      int cpus = 0;
      int gpus = 0;
      if (!r->read(job, cpus, gpus)) {
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
    JobTable::Slot* slot = jobs_.find(id);
    if (slot == nullptr) {
      r->fail("running job without a record: " + std::to_string(id));
      break;
    }
    if (slot->running()) {
      r->fail("running job listed twice: " + std::to_string(id));
      break;
    }
    // A job is either queued or running; starting a pending one runs it.
    if (slot->pending()) {
      r->fail("running job listed as pending: " + std::to_string(id));
      break;
    }
    const uint32_t run = acquire_running();
    jobs_.set_run(*slot, run);
    RunningJob& job = run_pool_[run];
    job.id = id;
    job.spec = &slot->record.spec;
    uint64_t np = 0;
    r->read(fields(job), np);
    if (r->ok() && (np == 0 || np > cluster_.node_count())) {
      r->fail("running job with " + std::to_string(np) +
              " placement legs: " + std::to_string(id));
      break;
    }
    job.placement.nodes.resize(np);
    job.nodes.resize(np);
    for (uint64_t j = 0; j < np && r->ok(); ++j) {
      r->expect("place");
      r->read(fields(job.placement.nodes[j]));
    }
    for (auto& [node, st] : job.nodes) {
      r->expect("pstate");
      r->read(node, fields(st));
      st.footprint.job = id;
    }
    // pstate rows were serialized in ascending node order, but sort anyway:
    // the flat vector's order is an invariant, not a serialization accident.
    std::sort(job.nodes.begin(), job.nodes.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Finishing or evicting the job releases its allocation on every
    // placement node and recomputes every leg, so the placement must name
    // exactly the legs' nodes, each in range and holding the job.
    std::vector<cluster::NodeId> placed;
    for (const sched::NodePlacement& p : job.placement.nodes) {
      placed.push_back(p.node);
    }
    std::sort(placed.begin(), placed.end());
    for (size_t j = 0; j < placed.size() && r->ok(); ++j) {
      const cluster::NodeId node = placed[j];
      if (node != job.nodes[j].first ||
          (j > 0 && node == placed[j - 1]) ||
          node >= cluster_.node_count() ||
          !cluster_.node(node).hosts(id)) {
        r->fail("running job " + std::to_string(id) +
                " has a placement that disagrees with its legs or "
                "allocations");
      }
    }
    // finish_event stays empty here; the snapshot manifest re-posts the
    // finish through repost() at the exact serialized firing time.
    add_tick_cells(job);
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
      JobTable::Slot* slot = jobs_.find(id);
      if (slot == nullptr || !slot->running()) {
        r->fail("resident references a non-running job");
        break;
      }
      RunningJob& job = running(*slot);
      PerNodeState* st = node_state(job, static_cast<cluster::NodeId>(node));
      if (st == nullptr) {
        r->fail("resident references a node the job does not occupy");
        break;
      }
      jobs_on_node_[node].push_back(Resident{id, &job, st});
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
    uint64_t k = 0;
    r->read(fields(rep), k);
    rep.jobs.clear();
    for (uint64_t j = 0; j < k && r->ok(); ++j) {
      r->expect("rj");
      r->read(fields(rep.jobs.emplace_back()));
    }
  }

  // Derived caches are not serialized: rebuild them from what just loaded,
  // with the same expressions the live engine stored them with.
  if (r->ok()) {
    for (uint32_t s : jobs_.by_id()) {
      const JobTable::Slot& slot = jobs_.slot(s);
      if (slot.running()) {
        store_tick_terms(running(slot));
      }
    }
    for (size_t node = 0; node < node_reports_.size(); ++node) {
      cache_node_telemetry(static_cast<cluster::NodeId>(node));
    }
  }

  r->expect("mba");
  n = r->u64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    r->expect("cap");
    cluster::NodeId node = 0;
    cluster::JobId job = 0;
    double cap = 0.0;
    if (!r->read(node, job, cap)) {
      break;
    }
    if (node >= cluster_.node_count()) {
      r->fail("MBA cap on an unknown node");
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
    Event e;
    r->read(fields(e));
    event_log_.record(e.t, e.kind, e.job, e.node, e.value);
  }

  return r->status();
}

}  // namespace coda::sim
