#include "sim/job_table.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"

namespace coda::sim {

void JobTable::reserve(size_t jobs) {
  const size_t want =
      std::bit_ceil(std::max<size_t>(16, 2 * (size_ + jobs)));
  if (want > index_.size()) {
    rehash(want);
  }
  order_.reserve(size_ + jobs);
  chunks_.reserve(((size_ + jobs) >> kChunkBits) + 1);
}

JobTable::Slot* JobTable::add(const workload::JobSpec& spec) {
  if (2 * (size_ + 1) > index_.size()) {
    rehash(std::max<size_t>(16, 2 * index_.size()));
  }
  const size_t mask = index_.size() - 1;
  size_t at = home(spec.id);
  for (; index_[at] != kNone; at = (at + 1) & mask) {
    if (slot(index_[at]).id() == spec.id) {
      return nullptr;
    }
  }
  CODA_ASSERT(size_ < kNone);
  const uint32_t s = static_cast<uint32_t>(size_);
  if ((s & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(size_t{1} << kChunkBits));
  }
  Slot& added = slot(s);
  added.record.spec = spec;
  index_[at] = s;
  ++size_;
  // The id order stays a plain append while ids ascend.
  if (sorted_ == order_.size() &&
      (order_.empty() || slot(order_.back()).id() < spec.id)) {
    ++sorted_;
  }
  order_.push_back(s);
  return &added;
}

const JobRecord& JobTable::at(cluster::JobId id) const {
  const Slot* s = find(id);
  CODA_ASSERT_MSG(s != nullptr, "unknown job id");
  return s->record;
}

size_t JobTable::home(cluster::JobId id) const {
  // Fibonacci hashing: consecutive trace ids spread over the whole index.
  return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> index_shift_);
}

uint32_t JobTable::lookup(cluster::JobId id) const {
  if (index_.empty()) {
    return kNone;
  }
  const size_t mask = index_.size() - 1;
  for (size_t at = home(id);; at = (at + 1) & mask) {
    const uint32_t s = index_[at];
    if (s == kNone || slot(s).id() == id) {
      return s;
    }
  }
}

void JobTable::rehash(size_t capacity) {
  index_.assign(capacity, kNone);
  index_shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (uint32_t s = 0; s < size_; ++s) {
    size_t at = home(slot(s).id());
    while (index_[at] != kNone) {
      at = (at + 1) & mask;
    }
    index_[at] = s;
  }
}

const std::vector<uint32_t>& JobTable::by_id() const {
  if (sorted_ < order_.size()) {
    const auto by = [this](uint32_t a, uint32_t b) {
      return slot(a).id() < slot(b).id();
    };
    const auto mid = order_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    std::sort(mid, order_.end(), by);
    std::inplace_merge(order_.begin(), mid, order_.end(), by);
    sorted_ = order_.size();
  }
  return order_;
}

void JobTable::set_pending(Slot& s, double since) {
  s.pending_ = true;
  s.pending_since_ = since;
}

void JobTable::clear_pending(Slot& s) {
  s.pending_ = false;
}

void JobTable::set_remaining(Slot& s, double work) {
  s.has_remaining_ = true;
  s.remaining_ = work;
}

void JobTable::clear_remaining(Slot& s) {
  s.has_remaining_ = false;
}

void JobTable::set_run(Slot& s, uint32_t run) {
  CODA_ASSERT(run != kNone && s.run_ == kNone);
  ++running_;
  s.run_ = run;
}

void JobTable::clear_run(Slot& s) {
  CODA_ASSERT(s.run_ != kNone);
  --running_;
  s.run_ = kNone;
}

}  // namespace coda::sim
