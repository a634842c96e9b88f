// Registry of EventTag.kind values used across the simulation layers.
//
// A scheduled event is nothing but its tag: the queue stores (t, tag), and
// the Simulator hands each popped tag to the sink registered for its kind
// (Simulator::register_sink). The values live here, in the one header
// every tagging layer already includes, so the snapshot subsystem's
// manifest has a single enumeration to check rows against. Kind 0 names
// no event.
#pragma once

#include <cstdint>

namespace coda::simcore {

enum EventTagKind : uint32_t {
  kTagArrival = 1,         // a = job id (engine arrival)
  kTagJobFinish = 2,       // a = job id (engine finish event)
  kTagNodeFail = 3,        // a = node id (scheduled outage start)
  kTagNodeRecover = 4,     // a = node id (scheduled outage end)
  kTagMetricsTick = 5,     // engine metrics-sampling periodic
  kTagRetryResubmit = 6,   // a = job id (scheduler retry backoff)
  kTagEliminatorTick = 7,  // CODA eliminator check periodic
  kTagReservationTick = 8, // CODA reservation-update periodic
  kTagTuningTick = 9,      // a = job id, b = tuning generation
};

// One past the largest kind: the size of the Simulator's sink table.
inline constexpr uint32_t kTagKindEnd = 10;

// Whether an event of `kind` claims an EventPool slot, the slot its handle
// names. A finish needs one: it is cancelled whenever its job's rate
// changes. A tuning tick claims one too, though nothing cancels it (its
// handler drops a stale generation). The event_pool_* gauges count these
// slots into every snapshot, so the rule is part of the persisted bytes.
constexpr bool claims_slot(uint32_t kind) {
  return kind == kTagJobFinish || kind == kTagTuningTick;
}

}  // namespace coda::simcore
