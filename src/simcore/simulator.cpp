#include "simcore/simulator.h"

#include <limits>

#include "util/assert.h"

namespace coda::simcore {

bool Simulator::register_sink(uint32_t kind, EventSink* sink) {
  if (kind == 0 || kind >= sinks_.size() || sinks_[kind] != nullptr) {
    return false;
  }
  sinks_[kind] = sink;
  return true;
}

EventHandle Simulator::schedule_at(SimTime t, EventTag tag) {
  CODA_ASSERT_MSG(t >= now_, "cannot schedule an event in the simulated past");
  CODA_ASSERT_MSG(sink(tag.kind) != nullptr,
                  "cannot schedule an event of a kind with no sink");
  return queue_.push(t, tag);
}

void Simulator::restore_clock(SimTime now, size_t dispatched) {
  CODA_ASSERT_MSG(queue_.empty(),
                  "restore_clock requires an empty event queue");
  CODA_ASSERT(now >= now_);
  now_ = now;
  dispatched_ = dispatched;
}

SimTime Simulator::next_event_time() {
  return queue_.empty() ? std::numeric_limits<SimTime>::infinity()
                        : queue_.next_time();
}

size_t Simulator::run_until(SimTime until) {
  size_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    const EventQueue::Popped event = queue_.pop();
    CODA_ASSERT(event.t >= now_);
    now_ = event.t;
    sinks_[event.tag.kind]->on_event(event.tag);
    ++n;
    ++dispatched_;
    if (post_dispatch_ != nullptr) {
      post_dispatch_->after_dispatch();
    }
  }
  if (now_ < until) {
    now_ = until;  // advance the clock even if the queue drained early
  }
  return n;
}

size_t Simulator::run_all() {
  return run_until(std::numeric_limits<SimTime>::infinity());
}

}  // namespace coda::simcore
