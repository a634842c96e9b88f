// Discrete-event simulator driving all CODA experiments.
//
// The simulator owns the clock and the event queue. An event is its
// EventTag: each layer registers itself as the sink of the kinds it owns
// (the engine's arrivals, finishes, outages and metrics tick; the policy's
// retries and CODA's ticks), schedules tags at absolute simulated times,
// and gets each tag back through EventSink::on_event when its time comes.
// run_until() dispatches in (time, insertion) order until the queue drains
// or a time limit is hit. A periodic kind re-posts its next tick at
// now() + period as the last step of its handler.
#pragma once

#include <array>
#include <vector>

#include "simcore/event_queue.h"

namespace coda::simcore {

// A layer that owns event kinds. The Simulator hands it every popped
// event of a kind it registered for.
class EventSink {
 public:
  virtual ~EventSink() = default;

  // Handles one event of a registered kind; Simulator::now() is its time.
  virtual void on_event(const EventTag& tag) = 0;

  // Runs after every dispatched event, whatever its kind, while this sink
  // is the Simulator's post-dispatch sink (set_post_dispatch).
  virtual void after_dispatch() {}
};

class Simulator {
 public:
  // Current simulated time (seconds since start). Monotonically
  // non-decreasing across event dispatches.
  SimTime now() const { return now_; }

  // Makes `sink` the owner of `kind`. Refused (false, nothing registered)
  // when the kind is out of range or already has a sink.
  bool register_sink(uint32_t kind, EventSink* sink);

  // The sink registered for `kind`; nullptr when none is, including for a
  // kind out of range (a kind read from a file may be any number).
  EventSink* sink(uint32_t kind) const {
    return kind < sinks_.size() ? sinks_[kind] : nullptr;
  }

  // Queues `tag` at absolute time `t` (>= now()); its kind must have a
  // sink. The handle names the event when its kind claims a pool slot
  // (claims_slot) and is empty otherwise.
  EventHandle schedule_at(SimTime t, EventTag tag);

  // Whether `handle`'s event is still queued, and cancelling it (a no-op
  // once it fired or was cancelled). See EventQueue.
  bool pending(EventHandle handle) const { return queue_.pending(handle); }
  void cancel(EventHandle handle) { queue_.cancel(handle); }

  // Appends every live event to `out` in dispatch order.
  void pending_events(std::vector<PendingEvent>* out) const {
    queue_.pending_events(out);
  }

  // Snapshot restore: force the clock and the dispatch counter to the
  // values the snapshotted simulator had. Only legal before any event is
  // scheduled (the queue must be empty) — manifest events are re-posted
  // after this, at absolute times >= `now`.
  void restore_clock(SimTime now, size_t dispatched);

  // Dispatches events until the queue is empty or simulated time would
  // exceed `until` (events at exactly `until` still run). Returns the number
  // of events dispatched.
  size_t run_until(SimTime until);

  // Dispatches events until the queue is empty. Returns events dispatched.
  size_t run_all();

  // Number of events dispatched since construction.
  size_t dispatched() const { return dispatched_; }

  bool queue_empty() const { return queue_.empty(); }

  // Occupancy of the event control-slot pool (telemetry export).
  EventPool::Stats event_pool_stats() const { return queue_.pool_stats(); }

  // Time of the earliest live event, or +infinity when the queue is empty.
  // Pacing hook for the service layer: a real-time driver sleeps until the
  // wall-clock instant this virtual time maps to. Non-const because peeking
  // lazily drops cancelled heap entries.
  SimTime next_event_time();

  // Has `sink->after_dispatch()` run after every dispatched event, before
  // the clock advances to the next one. The simulation engine uses this to
  // drain its dirty-node set exactly once per dispatch: all mutations an
  // event makes happen at one simulated instant, so batching their
  // recomputes here is observationally identical to recomputing eagerly.
  // Pass nullptr to clear.
  void set_post_dispatch(EventSink* sink) { post_dispatch_ = sink; }

 private:
  SimTime now_ = 0.0;
  EventQueue queue_;
  size_t dispatched_ = 0;
  std::array<EventSink*, kTagKindEnd> sinks_{};
  EventSink* post_dispatch_ = nullptr;
};

}  // namespace coda::simcore
