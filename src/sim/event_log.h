// Scheduling-decision audit trail: every externally-visible action the
// engine takes (arrivals, starts, finishes, preemptions, failure evictions,
// resizes, bandwidth caps, node outages) with its simulated timestamp.
// Off by default; enable via EngineConfig::record_events for debugging,
// post-hoc analysis or CSV export.
#pragma once

#include <string>
#include <vector>

#include "cluster/resources.h"
#include "util/fields.h"
#include "util/result.h"

namespace coda::sim {

enum class EventKind {
  kArrival = 0,
  kStart,
  kFinish,
  kPreempt,      // scheduler-initiated stop (abort or migration)
  kEvict,        // engine-initiated stop (node failure)
  kResize,       // CPU core-count change
  kBwCap,        // MBA cap set
  kBwCapClear,   // MBA cap removed
  kNodeFail,
  kNodeRecover,
  kAbandon,      // retry cap exhausted; job permanently given up
};

const char* to_string(EventKind kind);

struct Event {
  double t = 0.0;
  EventKind kind = EventKind::kArrival;
  cluster::JobId job = 0;     // 0 for node-level events
  int node = -1;              // -1 when no single node applies
  double value = 0.0;         // cores, GB/s cap, ... by kind

  // Snapshot `ev` rows.
  friend auto fields(util::FieldsOf<Event> auto& e) {
    return std::tie(e.t, e.kind, e.job, e.node, e.value);
  }
};

class EventLog {
 public:
  explicit EventLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void record(double t, EventKind kind, cluster::JobId job, int node = -1,
              double value = 0.0) {
    if (enabled_) {
      events_.push_back(Event{t, kind, job, node, value});
    }
  }

  const std::vector<Event>& events() const { return events_; }
  size_t size() const { return events_.size(); }

  // Number of recorded events of one kind.
  size_t count(EventKind kind) const;

  // Events touching one job, in order.
  std::vector<Event> for_job(cluster::JobId job) const;

  // CSV export: t,kind,job,node,value.
  util::Status save_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Event> events_;
};

}  // namespace coda::sim
