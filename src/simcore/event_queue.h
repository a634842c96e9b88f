// Cancellable priority event queue for the discrete-event simulator.
//
// Events are ordered by (time, insertion sequence): ties in simulated time
// resolve in schedule order, which keeps runs bit-for-bit deterministic.
// Cancellation is lazy — a cancelled entry stays queued and is skipped when
// it surfaces — so cancel is O(1) and pop stays O(log n) amortized.
//
// Storage is a two-level calendar hierarchy instead of one global heap:
// a small "near" binary heap holds only events before near_end_, a ring of
// equal-width far buckets covers the current epoch beyond it, and an
// unsorted overflow holds everything past the ring. Steady-state pushes
// into the future append to a far bucket in O(1) instead of paying
// O(log E) against every queued event; buckets migrate into the near heap
// one at a time as the simulation reaches them. Routing is strict on
// t < near_end_ and bucket edges are computed with one shared expression,
// so equal-time events always land in the same structure and dispatch
// order is identical to the single-heap implementation, event for event.
//
// An entry is plain data: (t, seq, tag, slot, gen). The tag is the whole
// event; what it does is up to the layer that owns its kind (see
// simulator.h). Kinds that claim a pool slot (claims_slot in event_tags.h)
// get a handle that can cancel them; every other kind is fire-and-forget.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simcore/event_tags.h"

namespace coda::simcore {

using SimTime = double;  // simulated seconds since experiment start

// Identity of a scheduled event, and all of it: the (kind, a, b) triple
// names the owning layer's handler and its arguments (see
// simcore/event_tags.h for the kind registry). A snapshot's manifest stores
// (t, tag) rows, which is enough to re-post the exact event on restore.
struct EventTag {
  uint32_t kind = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

// One live queue entry as seen by the snapshot subsystem: fire time, the
// insertion sequence (relative order under time ties), and the tag.
struct PendingEvent {
  SimTime t = 0.0;
  uint64_t seq = 0;
  EventTag tag;
};

// Slab pool of event control slots. Each slot is just a generation counter:
// a (slot, generation) pair names one scheduled event, and the pair goes
// stale — meaning "fired or cancelled" — the moment the slot's generation
// is bumped. Slots recycle through a free list, so after warm-up a push
// allocates nothing; bumping the generation on release makes recycled slots
// safe against stale handles (ABA).
class EventPool {
 public:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // Claims a slot (growing by one slab when the free list is empty) and
  // returns its index; the current generation names this allocation.
  uint32_t alloc() {
    if (free_.empty()) {
      grow();
    }
    const uint32_t idx = free_.back();
    free_.pop_back();
    ++in_use_;
    return idx;
  }

  uint64_t generation(uint32_t idx) const {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }

  // Invalidates every outstanding (idx, generation) reference and recycles
  // the slot. Called when the event fires or is cancelled.
  void release(uint32_t idx) {
    ++chunks_[idx / kChunkSlots][idx % kChunkSlots];
    free_.push_back(idx);
    --in_use_;
  }

  struct Stats {
    size_t live_events = 0;   // scheduled & not fired/cancelled, any kind
    size_t slots_in_use = 0;  // pooled control slots currently claimed
    size_t slots_free = 0;    // recycled slots awaiting reuse
    size_t chunks = 0;        // slabs allocated over the pool's lifetime
  };

 private:
  friend class EventQueue;
  static constexpr size_t kChunkSlots = 256;

  void grow() {
    auto chunk = std::make_unique<uint64_t[]>(kChunkSlots);
    const uint32_t base = static_cast<uint32_t>(chunks_.size() * kChunkSlots);
    for (size_t i = 0; i < kChunkSlots; ++i) {
      chunk[i] = 0;
      free_.push_back(base + static_cast<uint32_t>(kChunkSlots - 1 - i));
    }
    chunks_.push_back(std::move(chunk));
  }

  std::vector<std::unique_ptr<uint64_t[]>> chunks_;  // slot generations
  std::vector<uint32_t> free_;
  size_t in_use_ = 0;
};

// Names one queued event of a slot-claiming kind: its pool slot and the
// slot's generation at push time. A default handle, and the handle of a
// kind that claims no slot, name nothing. Cancel and query it through the
// queue (or Simulator) that pushed it.
struct EventHandle {
  uint32_t slot = EventPool::kNoSlot;
  uint64_t gen = 0;
};

class EventQueue {
 public:
  // Enqueues `tag` at simulated time `t`. Times may be scheduled in any
  // order but must not precede the last popped time (checked by the
  // Simulator). A slot-claiming kind gets a pool slot, which the returned
  // handle names; any other kind gets an empty handle.
  EventHandle push(SimTime t, EventTag tag);

  // True while `handle`'s event is queued: not yet fired or cancelled.
  bool pending(EventHandle handle) const {
    return handle.slot != EventPool::kNoSlot &&
           pool_.generation(handle.slot) == handle.gen;
  }

  // Cancels `handle`'s event if it is still queued. A no-op once it fired
  // or was cancelled, even after a later push recycled its slot: the
  // slot's generation has moved on.
  void cancel(EventHandle handle);

  // Appends every live (non-cancelled) entry to `out` in dispatch order
  // ((t, seq) ascending).
  void pending_events(std::vector<PendingEvent>* out) const;

  // True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  // Time of the earliest live event; requires !empty().
  SimTime next_time();

  // Pops and returns the earliest live event; requires !empty().
  struct Popped {
    SimTime t;
    EventTag tag;
  };
  Popped pop();

  // Number of live events; O(1).
  size_t live_count() const { return live_; }

  // Control-slot pool occupancy; telemetry reads this through the Simulator.
  EventPool::Stats pool_stats() const {
    return EventPool::Stats{live_, pool_.in_use_, pool_.free_.size(),
                            pool_.chunks_.size()};
  }

 private:
  struct Entry {
    SimTime t;
    uint64_t seq;
    EventTag tag;
    uint32_t slot;  // EventPool::kNoSlot for kinds that claim none
    uint64_t gen;   // pool generation at push time
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) {
        return a.t > b.t;
      }
      return a.seq > b.seq;
    }
  };

  // An entry whose slot generation moved on is cancelled: cancel() released
  // the slot before the event fired.
  bool stale(const Entry& entry) const {
    return entry.slot != EventPool::kNoSlot &&
           pool_.generation(entry.slot) != entry.gen;
  }

  static constexpr size_t kFarBuckets = 256;

  // Files an entry into near heap / far ring / overflow by its time.
  void route(const Entry& entry);
  // Ensures the near heap's top is the earliest live event, migrating far
  // buckets (and re-seeding the epoch from overflow) as needed. Requires a
  // live event to exist.
  void refill();
  // Spreads the overflow across a fresh ring epoch sized to its time span.
  void rebuild_epoch();
  // Live count hit zero: drop any leftover cancelled entries and reset the
  // epoch so the next batch starts clean.
  void reset_structures();

  std::vector<Entry> near_;     // min-heap over (t, seq); times < near_end_
  std::vector<std::vector<Entry>> far_ =
      std::vector<std::vector<Entry>>(kFarBuckets);  // calendar ring
  std::vector<Entry> overflow_;  // past the ring, or no epoch active
  SimTime near_end_ = 0.0;       // near/far routing boundary (strict <)
  SimTime far_base_ = 0.0;       // ring epoch start
  SimTime far_width_ = 0.0;      // per-bucket width of the current epoch
  size_t far_cursor_ = 0;        // next ring bucket to migrate
  bool epoch_active_ = false;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;  // queued events not yet fired or cancelled
  EventPool pool_;
};

}  // namespace coda::simcore
