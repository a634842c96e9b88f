#include "simcore/event_queue.h"

#include <algorithm>

#include "util/assert.h"

namespace coda::simcore {

void EventQueue::route(const Entry& entry) {
  if (epoch_active_) {
    if (entry.t < near_end_) {
      near_.push_back(entry);
      std::push_heap(near_.begin(), near_.end(), Later{});
      return;
    }
    const SimTime ring_end =
        far_base_ + static_cast<SimTime>(kFarBuckets) * far_width_;
    if (entry.t < ring_end) {
      size_t idx = static_cast<size_t>((entry.t - far_base_) / far_width_);
      if (idx >= kFarBuckets) {
        idx = kFarBuckets - 1;
      }
      // The division can land one bucket off the true half-open interval
      // [base + idx*w, base + (idx+1)*w); nudge with the same edge
      // expression routing and migration use, so equal times always agree.
      while (idx > 0 &&
             entry.t < far_base_ + static_cast<SimTime>(idx) * far_width_) {
        --idx;
      }
      while (idx + 1 < kFarBuckets &&
             entry.t >=
                 far_base_ + static_cast<SimTime>(idx + 1) * far_width_) {
        ++idx;
      }
      far_[idx].push_back(entry);
      return;
    }
  }
  overflow_.push_back(entry);
}

EventHandle EventQueue::push(SimTime t, EventTag tag) {
  EventHandle handle;
  if (claims_slot(tag.kind)) {
    handle.slot = pool_.alloc();
    handle.gen = pool_.generation(handle.slot);
  }
  ++live_;
  route(Entry{t, next_seq_++, tag, handle.slot, handle.gen});
  return handle;
}

void EventQueue::cancel(EventHandle handle) {
  if (pending(handle)) {
    pool_.release(handle.slot);
    --live_;
  }
}

void EventQueue::pending_events(std::vector<PendingEvent>* out) const {
  const size_t first = out->size();
  const auto append = [&](const std::vector<Entry>& entries) {
    for (const Entry& entry : entries) {
      if (!stale(entry)) {  // a cancelled entry never fires
        out->push_back(PendingEvent{entry.t, entry.seq, entry.tag});
      }
    }
  };
  append(near_);
  for (const auto& bucket : far_) {
    append(bucket);
  }
  append(overflow_);
  std::sort(out->begin() + static_cast<ptrdiff_t>(first), out->end(),
            [](const PendingEvent& a, const PendingEvent& b) {
              if (a.t != b.t) {
                return a.t < b.t;
              }
              return a.seq < b.seq;
            });
}

void EventQueue::refill() {
  for (;;) {
    // Cancelled entries already left the live count (cancel());
    // here they just get evicted as they surface.
    while (!near_.empty() && stale(near_.front())) {
      std::pop_heap(near_.begin(), near_.end(), Later{});
      near_.pop_back();
    }
    if (!near_.empty()) {
      return;
    }
    if (epoch_active_ && far_cursor_ < kFarBuckets) {
      // Migrate the next ring bucket wholesale. Every unmigrated bucket
      // holds only times >= its lower edge, so extending near_end_ to this
      // bucket's upper edge keeps the near heap's top the global minimum.
      std::vector<Entry>& bucket = far_[far_cursor_];
      near_end_ =
          far_base_ + static_cast<SimTime>(far_cursor_ + 1) * far_width_;
      ++far_cursor_;
      for (const Entry& entry : bucket) {
        if (!stale(entry)) {
          near_.push_back(entry);
        }
      }
      bucket.clear();
      std::make_heap(near_.begin(), near_.end(), Later{});
      continue;
    }
    rebuild_epoch();
  }
}

void EventQueue::rebuild_epoch() {
  overflow_.erase(
      std::remove_if(overflow_.begin(), overflow_.end(),
                     [this](const Entry& entry) { return stale(entry); }),
      overflow_.end());
  CODA_ASSERT_MSG(!overflow_.empty(),
                  "refill with no live event anywhere in the queue");
  SimTime min_t = overflow_.front().t;
  SimTime max_t = min_t;
  for (const Entry& entry : overflow_) {
    min_t = std::min(min_t, entry.t);
    max_t = std::max(max_t, entry.t);
  }
  far_base_ = min_t;
  // The relative margin keeps max_t strictly inside the last bucket (it
  // dwarfs double rounding); the floor handles a single-instant overflow.
  far_width_ = std::max(
      (max_t - min_t) * (1.0 + 1e-9) / static_cast<SimTime>(kFarBuckets),
      1e-6);
  far_cursor_ = 0;
  near_end_ = far_base_;
  epoch_active_ = true;
  std::vector<Entry> pending;
  pending.swap(overflow_);
  for (const Entry& entry : pending) {
    route(entry);
  }
  CODA_ASSERT(overflow_.empty());  // the fresh ring must span every entry
}

void EventQueue::reset_structures() {
  near_.clear();
  for (auto& bucket : far_) {
    bucket.clear();
  }
  overflow_.clear();
  epoch_active_ = false;
  far_cursor_ = 0;
  near_end_ = 0.0;
}

SimTime EventQueue::next_time() {
  CODA_ASSERT(live_ > 0);
  refill();
  return near_.front().t;
}

EventQueue::Popped EventQueue::pop() {
  CODA_ASSERT(live_ > 0);
  refill();
  std::pop_heap(near_.begin(), near_.end(), Later{});
  const Entry top = near_.back();
  near_.pop_back();
  if (top.slot != EventPool::kNoSlot) {
    // Recycle the control slot; the generation bump flips every handle for
    // this event to !pending(), the pooled equivalent of "fired".
    pool_.release(top.slot);
  }
  --live_;
  if (live_ == 0) {
    // Nothing live remains (stale leftovers at most): reset the epoch so
    // the next batch of submissions sizes a fresh ring for its own span.
    reset_structures();
  }
  return Popped{top.t, top.tag};
}

}  // namespace coda::simcore
